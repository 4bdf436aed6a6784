package replica

// The serving benchmark harness behind BENCH_serving.json. Regenerate with:
//
//	go test ./internal/replica/ -bench 'ServingReplicas|ColdFlood' -benchtime 5x -run xxx
//
// Methodology (single-core CI container, GOMAXPROCS=1):
//
//   - BenchmarkServingReplicas is latency-bound, not CPU-bound: each stub
//     replica injects a fixed 40 ms service time and enforces the default
//     admission ceiling (16 in-flight, then 429 + Retry-After), which is
//     how a fleet behaves when each replica's latency is dominated by its
//     own ensemble pass. One op = one successfully served request from a
//     64-client flood (shed requests are retried by the client loop, as
//     the real jittered client does), so ns/op is inverse aggregate
//     throughput and the 1 → 4 replica ratio is the scale-out factor.
//     Real per-replica compute cannot scale on one core, so this harness
//     isolates exactly what the router adds: fan-out across per-replica
//     concurrency ceilings and failover-free affinity routing.
//   - BenchmarkColdFlood{Uncoalesced,SingleFlight} run the REAL diagnosis
//     stack (two-model ensemble, Kernel SHAP) with the LRU cache disabled:
//     one op = 64 concurrent clients all demanding the same cold job (the
//     dogpile). Uncoalesced, each client has a server of its own, so every
//     request pays a full ensemble pass; single-flight, all clients share
//     one server, whose identical in-flight misses join one pass. The ratio
//     is pure compute saved, which also holds on multi-core hosts.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/webservice"
)

// stubReplica models one replica serving at a fixed latency under the
// default admission ceiling.
func stubReplica(service time.Duration, maxInflight int) *httptest.Server {
	sem := make(chan struct{}, maxInflight)
	body := []byte(`{"ok":true}`)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case sem <- struct{}{}:
		default:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		defer func() { <-sem }()
		time.Sleep(service)
		w.Write(body)
	}))
}

func benchServing(b *testing.B, replicas int) {
	// 40 ms ≈ one real ensemble pass; it also keeps per-replica capacity
	// (16/40ms = 400 req/s) well under this single core's ~4k req/s of
	// proxy+client CPU, so the measurement stays latency-bound through 4
	// replicas instead of hitting the host's CPU ceiling.
	const (
		serviceTime = 40 * time.Millisecond
		maxInflight = 16
		clients     = 96
	)
	var urls []string
	for i := 0; i < replicas; i++ {
		srv := stubReplica(serviceTime, maxInflight)
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	rt := NewRouter(RouterConfig{Replicas: urls})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	// Distinct job bodies spread the flood across the whole ring.
	var bodies [][]byte
	for i := 0; i < 256; i++ {
		bodies = append(bodies, []byte(fmt.Sprintf("job-body-%d", i)))
	}

	b.ResetTimer()
	b.SetParallelism(clients)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			body := bodies[i%len(bodies)]
			// One op = one served request; 429s are retried like the real
			// client would (without its sleep: the stub's Retry-After is a
			// fixed bench constant, and sleeping it would measure the hint,
			// not the fleet).
			for {
				resp, err := client.Post(front.URL+"/api/v1/diagnose", "text/plain", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	})
}

func BenchmarkServingReplicas1(b *testing.B) { benchServing(b, 1) }
func BenchmarkServingReplicas3(b *testing.B) { benchServing(b, 3) }
func BenchmarkServingReplicas4(b *testing.B) { benchServing(b, 4) }

func benchColdFlood(b *testing.B, shared bool) {
	// Production budget with the Kernel SHAP estimator (what every
	// non-tree model — MLP, TabNet — pays in serving, and the paper's
	// model-agnostic attribution method). The exact-TreeSHAP pass is so
	// cheap after the hot-path flattening that a tree-only flood
	// bottlenecks on HTTP parsing; the kernel pass is where collapsed
	// ensemble passes show their real value.
	opts := core.DefaultDiagnoseOptions()
	opts.Explainer = core.ExplainerKernel
	const clients = 64
	// Client c posts under /c/<c>/. Shared, every prefix reaches the same
	// server; otherwise each reaches its own, whose single-flight group
	// never sees another client's request.
	mux := http.NewServeMux()
	var h http.Handler
	for c := 0; c < clients; c++ {
		if h == nil || !shared {
			s := webservice.NewServer(ensemble(b), opts)
			s.CacheSize = -1 // every request is cold: the dogpile worst case
			h = s.Handler()
		}
		prefix := fmt.Sprintf("/c/%d", c)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, h))
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	body := recordBody(b, testRecord(b, 16))
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				url := fmt.Sprintf("%s/c/%d/api/v1/diagnose", srv.URL, c)
				resp, err := client.Post(url, "text/plain", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("HTTP %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
}

func BenchmarkColdFloodUncoalesced(b *testing.B)  { benchColdFlood(b, false) }
func BenchmarkColdFloodSingleFlight(b *testing.B) { benchColdFlood(b, true) }
