package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// Retry policy: transient failures (connection refused/reset, any 5xx
// response) are retried up to retryAttempts times with exponential backoff
// and full jitter, so a fleet of clients hammering a restarting service
// does not reconverge in lockstep. Two admission-layer signals adjust
// that:
//
//   - 429 (shed): retried after the server's Retry-After hint instead of
//     the computed backoff — the server knows its own load better than our
//     exponential guess — plus up to 50% random jitter. The jitter matters:
//     a shedding server hands every refused client the SAME hint, and
//     honoring it verbatim re-synchronizes the whole herd into a second
//     stampede exactly one Retry-After later.
//   - 503 with X-AIIO-Breaker: open: NOT retried. Every model's circuit
//     breaker is open and will stay open for a cooldown; hammering the
//     instance only delays its recovery.
//
// Other 4xx responses are the caller's fault and are never retried. The
// caller's context bounds the whole exchange, including backoff sleeps.
const retryAttempts = 3

// retryBase is the first backoff delay; a var so tests can shrink it.
var retryBase = 100 * time.Millisecond

// maxRetryAfter caps how long a server-provided Retry-After hint can make
// the client sleep; a bogus huge hint must not park a caller for hours.
const maxRetryAfter = 30 * time.Second

// ErrBreakerOpen wraps a 503 carrying X-AIIO-Breaker: open. Callers can
// errors.Is for it to route traffic elsewhere instead of retrying.
var ErrBreakerOpen = errors.New("webservice: service circuit breakers open")

// retryDelay computes the sleep before retry attempt (1-based). With a
// server Retry-After hint it is hint plus up to 50% jitter — the spread
// that keeps a herd of clients shed at the same instant from returning at
// the same instant. Without a hint it is exponential backoff with full
// jitter: uniform in [base·2^(attempt-1), 2·base·2^(attempt-1)).
func retryDelay(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint + time.Duration(rand.Int63n(int64(hint)/2+1))
	}
	d := retryBase << (attempt - 1)
	return d + time.Duration(rand.Int63n(int64(d)+1))
}

// retryAfterHint parses a 429/503 Retry-After header (delta-seconds form
// only; the HTTP-date form is not worth the dependency), clamped to
// maxRetryAfter. Zero when absent or unparseable.
func retryAfterHint(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// Client talks to an AIIO web service.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the given base URL (e.g.
// "http://localhost:8080").
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient}
}

// post sends body (replayable — a fresh reader per attempt) with the retry
// policy and returns the first non-5xx response.
func (c *Client) post(ctx context.Context, url, contentType string, body []byte) (*http.Response, error) {
	var lastErr error
	var hint time.Duration // server-provided Retry-After for the next attempt
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			delay := retryDelay(attempt, hint)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, fmt.Errorf("webservice: %w (last attempt: %v)", ctx.Err(), lastErr)
			}
		}
		hint = 0
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err // cancelled/deadlined: not transient
			}
			lastErr = err // connection-level failure: retry
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Shed by the admission layer: honor its Retry-After.
			lastErr = decodeError(resp)
			hint = retryAfterHint(resp)
			resp.Body.Close()
			continue
		}
		if resp.StatusCode >= 500 {
			if resp.Header.Get("X-AIIO-Breaker") == "open" {
				// Every model's breaker is open: retrying cannot help
				// until the cooldown; fail fast with a typed error.
				detail := decodeError(resp)
				resp.Body.Close()
				return nil, fmt.Errorf("%w: %v", ErrBreakerOpen, detail)
			}
			lastErr = decodeError(resp)
			resp.Body.Close()
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("webservice: giving up after %d attempts: %w", retryAttempts, lastErr)
}

// Diagnose uploads a record as a text log and returns the diagnosis.
func (c *Client) Diagnose(rec *darshan.Record) (*DiagnosisResponse, error) {
	return c.DiagnoseContext(context.Background(), rec)
}

// DiagnoseContext is Diagnose bounded by ctx: the deadline covers every
// retry attempt and the backoff sleeps between them.
func (c *Client) DiagnoseContext(ctx context.Context, rec *darshan.Record) (*DiagnosisResponse, error) {
	var body bytes.Buffer
	if err := darshan.WriteLog(&body, rec); err != nil {
		return nil, err
	}
	resp, err := c.post(ctx, c.BaseURL+"/api/v1/diagnose", "text/plain", body.Bytes())
	if err != nil {
		return nil, fmt.Errorf("webservice: diagnose request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out DiagnosisResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("webservice: decode diagnosis: %w", err)
	}
	return &out, nil
}

// Ingest ships records into the server's durable job log and returns the
// ingest accounting. Safe to retry: the server deduplicates by job hash,
// so a resend after a lost acknowledgment reports duplicates, not errors.
func (c *Client) Ingest(recs []*darshan.Record) (*IngestResponse, error) {
	return c.IngestContext(context.Background(), recs)
}

// IngestContext is Ingest bounded by ctx. A 429 from the ingest admission
// limit is retried after the server's Retry-After hint, like every post.
func (c *Client) IngestContext(ctx context.Context, recs []*darshan.Record) (*IngestResponse, error) {
	var body bytes.Buffer
	if err := darshan.WriteDataset(&body, &darshan.Dataset{Records: recs}); err != nil {
		return nil, err
	}
	resp, err := c.post(ctx, c.BaseURL+"/api/v1/jobs", "text/plain", body.Bytes())
	if err != nil {
		return nil, fmt.Errorf("webservice: ingest request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("webservice: decode ingest response: %w", err)
	}
	return &out, nil
}

// Models lists the registered models.
func (c *Client) Models() ([]ModelInfo, error) {
	return c.ModelsContext(context.Background())
}

// ModelsContext lists the registered models, retrying transient failures
// within ctx's bounds.
func (c *Client) ModelsContext(ctx context.Context) ([]ModelInfo, error) {
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			delay := retryDelay(attempt, 0)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, fmt.Errorf("webservice: %w (last attempt: %v)", ctx.Err(), lastErr)
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/v1/models", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = decodeError(resp)
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, decodeError(resp)
		}
		var out []ModelInfo
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, fmt.Errorf("webservice: decode models: %w", err)
		}
		return out, nil
	}
	return nil, fmt.Errorf("webservice: giving up after %d attempts: %w", retryAttempts, lastErr)
}

func decodeError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("webservice: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("webservice: HTTP %d", resp.StatusCode)
}
