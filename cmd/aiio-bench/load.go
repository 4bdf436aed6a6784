package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// phaseCounts is the requests_sent/ok/failed account of one phase.
type phaseCounts struct {
	Name    string `json:"name"`
	Clients int    `json:"clients"`
	Sent    int    `json:"requests_sent"`
	OK      int    `json:"requests_ok"`
	Failed  int    `json:"requests_failed"`
}

// loader drives one server over loopback HTTP.
type loader struct {
	client *http.Client
	srv    *server
	// wantGen, when set, is the X-AIIO-Generation every diagnose response
	// must carry.
	wantGen string

	mu sync.Mutex
	// errs keeps the first few failures for the report.
	errs []string
}

func newLoader(srv *server, clients int) *loader {
	return &loader{
		srv: srv,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients + 1,
			DisableCompression:  true,
		}},
	}
}

func (l *loader) noteFailure(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// post sends one request and returns the reply body and how long the
// caller waited for it. Any reply other than a 200 from the expected
// generation is an error.
func (l *loader) post(ctx context.Context, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.srv.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, data)
	}
	if l.wantGen != "" && path != pathJobs {
		if got := resp.Header.Get("X-AIIO-Generation"); got != l.wantGen {
			return nil, lat, fmt.Errorf("POST %s: X-AIIO-Generation %q, want %q", path, got, l.wantGen)
		}
	}
	return data, lat, nil
}

// roundResult is what one round of identical work measured.
type roundResult struct {
	wall   time.Duration
	cpuMs  float64   // server user+sys CPU consumed during the round
	latMs  []float64 // one per successful request
	jobs   int
	failed int
	// replies holds the reply bodies the caller asked to keep, by request
	// position.
	replies map[int][]byte
}

func (r roundResult) jobsPerSec() float64 { return float64(r.jobs) / r.wall.Seconds() }

// round sends reqs from `clients` closed-loop clients: a client sends its
// next request only once its previous reply is in. Which client carries
// which request varies; the set of requests in the round does not. keep
// names the request positions whose reply bodies the caller wants back.
func (l *loader) round(ctx context.Context, path string, reqs []request, clients int, keep map[int]bool) (roundResult, error) {
	res := roundResult{replies: make(map[int][]byte, len(keep))}
	lat := make([]float64, len(reqs))
	ok := make([]bool, len(reqs))
	var mu sync.Mutex
	cpu0, err := readProcCPUMs(l.srv.pid())
	if err != nil {
		return res, err
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				data, d, err := l.post(ctx, path, reqs[k].body)
				if err != nil {
					failed.Add(1)
					l.noteFailure(err)
					continue
				}
				ok[k] = true
				lat[k] = float64(d) / float64(time.Millisecond)
				if keep[k] {
					mu.Lock()
					res.replies[k] = data
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	cpu1, err := readProcCPUMs(l.srv.pid())
	if err != nil {
		return res, err
	}
	res.cpuMs = cpu1 - cpu0
	res.failed = int(failed.Load())
	for k, r := range reqs {
		if ok[k] {
			res.latMs = append(res.latMs, lat[k])
			res.jobs += len(r.jobs)
		}
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("phase cut short (deadline or signal): %w", err)
	}
	return res, nil
}

func (c *phaseCounts) add(r roundResult, sent int) {
	c.Sent += sent
	c.Failed += r.failed
	c.OK += sent - r.failed
}

// awaitGeneration polls until the server serves generation want and its
// retrainer is idle, and reports any retrain error it sees on the way.
func (l *loader) awaitGeneration(ctx context.Context, want uint64) error {
	for {
		h, err := l.srv.readHealth(ctx, l.client)
		if err != nil {
			return fmt.Errorf("waiting for generation %d: %w", want, err)
		}
		if h.Retrain.LastError != "" {
			return fmt.Errorf("waiting for generation %d: retrain failed: %s", want, h.Retrain.LastError)
		}
		if h.Generation.Generation == want && !h.Retrain.Busy {
			return nil
		}
		if h.Generation.Generation > want {
			return fmt.Errorf("server serves generation %d, expected to reach %d first", h.Generation.Generation, want)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for generation %d: %w", want, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}
