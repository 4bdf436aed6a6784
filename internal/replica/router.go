package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Router defaults.
const (
	// DefaultFailThreshold is how many consecutive probe or transport
	// failures take a member out of the ring.
	DefaultFailThreshold = 3
	// DefaultProbeInterval paces the background /readyz sweep.
	DefaultProbeInterval = 2 * time.Second
	// DefaultProbeTimeout bounds one /readyz probe.
	DefaultProbeTimeout = 2 * time.Second
	// DefaultRouterMaxBody caps a buffered request body (the body must be
	// buffered so a failover can replay it against the next candidate).
	DefaultRouterMaxBody = 64 << 20
)

// RouterConfig wires a Router.
type RouterConfig struct {
	// Replicas are the member base URLs (e.g. "http://10.0.0.1:8080").
	Replicas []string
	// VirtualNodes per member on the ring (DefaultVirtualNodes when <= 0).
	VirtualNodes int
	// FailThreshold consecutive failures mark a member down
	// (DefaultFailThreshold when <= 0). One success marks it back up.
	FailThreshold int
	// ProbeInterval paces the background health sweep
	// (DefaultProbeInterval when <= 0).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (DefaultProbeTimeout when <= 0).
	ProbeTimeout time.Duration
	// MaxBody caps a buffered request body (DefaultRouterMaxBody when 0).
	MaxBody int64
	// HTTP performs the proxying and probing (http.DefaultClient when
	// nil).
	HTTP *http.Client
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.MaxBody == 0 {
		c.MaxBody = DefaultRouterMaxBody
	}
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	return c
}

// memberState is one replica's health bookkeeping.
type memberState struct {
	fails   int
	healthy bool
}

// Router is the scale-out front for a fleet of aiio-server replicas: a
// consistent-hash affinity proxy with health-gated membership and
// deadline-aware failover. It holds no model state of its own — replicas
// stay shared-nothing — so N routers can front the same fleet.
type Router struct {
	cfg RouterConfig

	mu    sync.Mutex
	state map[string]*memberState
	// ring covers the currently-healthy members; swapped atomically on
	// every membership transition so request routing never takes mu.
	ring atomic.Pointer[Ring]

	proxied   atomic.Uint64
	failovers atomic.Uint64
	errors    atomic.Uint64
}

// NewRouter builds a router over cfg.Replicas, all initially presumed
// healthy (the first probe sweep corrects optimism within one interval;
// presuming members down would refuse traffic at startup for no reason).
func NewRouter(cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{cfg: cfg, state: make(map[string]*memberState, len(cfg.Replicas))}
	for _, m := range NewRing(cfg.Replicas, 1).Members() { // reuse dedup/sort
		rt.state[m] = &memberState{healthy: true}
	}
	rt.rebuildLocked()
	return rt
}

// rebuildLocked swaps in a ring over the healthy members. Callers hold mu
// (NewRouter is single-threaded).
func (rt *Router) rebuildLocked() {
	var healthy []string
	for m, st := range rt.state {
		if st.healthy {
			healthy = append(healthy, m)
		}
	}
	rt.ring.Store(NewRing(healthy, rt.cfg.VirtualNodes))
}

// markFailure charges one transport-level failure (connection refused,
// reset, probe timeout) against a member; FailThreshold consecutive ones
// take it off the ring so its hash buckets re-home deterministically to
// their ring successors.
func (rt *Router) markFailure(member string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.state[member]
	if !ok {
		return
	}
	st.fails++
	if st.healthy && st.fails >= rt.cfg.FailThreshold {
		st.healthy = false
		rt.rebuildLocked()
	}
}

// markSuccess resets a member's failure streak and restores it to the
// ring.
func (rt *Router) markSuccess(member string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.state[member]
	if !ok {
		return
	}
	st.fails = 0
	if !st.healthy {
		st.healthy = true
		rt.rebuildLocked()
	}
}

// Probe runs one health sweep: every member's /readyz, concurrently. A
// 200 is healthy; anything else — a refused connection, a 503 from a
// draining or breaker-dark replica — counts one failure toward the
// threshold.
func (rt *Router) Probe(ctx context.Context) {
	rt.mu.Lock()
	members := make([]string, 0, len(rt.state))
	for m := range rt.state {
		members = append(members, m)
	}
	rt.mu.Unlock()
	sort.Strings(members)
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, m+"/readyz", nil)
			if err != nil {
				rt.markFailure(m)
				return
			}
			resp, err := rt.cfg.HTTP.Do(req)
			if err != nil {
				rt.markFailure(m)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				rt.markSuccess(m)
			} else {
				rt.markFailure(m)
			}
		}(m)
	}
	wg.Wait()
}

// Run probes on the configured interval until ctx is done.
func (rt *Router) Run(ctx context.Context) {
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	rt.Probe(ctx)
	for {
		select {
		case <-tick.C:
			rt.Probe(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// MemberHealth is one member's state in the router's /healthz body.
type MemberHealth struct {
	URL              string `json:"url"`
	Healthy          bool   `json:"healthy"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
}

// Health snapshots every member's state, sorted by URL.
func (rt *Router) Health() []MemberHealth {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]MemberHealth, 0, len(rt.state))
	for m, st := range rt.state {
		out = append(out, MemberHealth{URL: m, Healthy: st.healthy, ConsecutiveFails: st.fails})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Stats reports lifetime proxied requests, failovers, and routing errors.
func (rt *Router) Stats() (proxied, failovers, errors uint64) {
	return rt.proxied.Load(), rt.failovers.Load(), rt.errors.Load()
}

// Handler returns the router's HTTP front. Job-carrying POSTs are routed
// by consistent hash of the body; everything else follows a fixed key so
// repeated calls land on the same (healthy) member.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", rt.handleHealth)
	mux.HandleFunc("/readyz", rt.handleReady)
	mux.HandleFunc("/", rt.handleProxy)
	return mux
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	proxied, failovers, errs := rt.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"members":   rt.Health(),
		"ring_size": rt.ring.Load().Len(),
		"proxied":   proxied,
		"failovers": failovers,
		"errors":    errs,
	})
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	if rt.ring.Load().Len() == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "reasons": []string{"no healthy replicas"},
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleProxy buffers the body (failover must replay it), picks the
// failover sequence for the request's affinity key, and relays the first
// acceptable upstream answer.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
			"error": fmt.Sprintf("read request body: %v", err),
		})
		return
	}
	// Affinity: job-carrying bodies hash by content, so one job's repeat
	// diagnoses hit the same replica's LRU cache. Body-less requests
	// (GETs, the HTML index) hash by path, which spreads endpoints across
	// the fleet but keeps each one stable.
	key := Key(body)
	if len(body) == 0 {
		key = hashString(r.URL.Path)
	}
	seq := rt.ring.Load().Sequence(key)
	if len(seq) == 0 {
		rt.errors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "no healthy replicas",
		})
		return
	}
	rt.proxied.Add(1)
	var lastResp *bufferedResponse
	var lastErr error
	for i, member := range seq {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			// Deadline-aware: a dead request is not worth another hop.
			break
		}
		if i > 0 {
			rt.failovers.Add(1)
		}
		resp, err := rt.attempt(r, member, body)
		if err != nil {
			// Transport-level death: charge the member, try the
			// successor.
			rt.markFailure(member)
			lastErr = err
			continue
		}
		if resp.status == http.StatusTooManyRequests || resp.status >= 500 {
			// The owner shed (429), is draining, or is erroring: its
			// hash bucket re-routes to the ring successor for this
			// request. No health penalty for an HTTP-level answer — the
			// process is alive, and /readyz gating decides membership.
			lastResp = resp
			continue
		}
		rt.markSuccess(member)
		resp.headers.Set("X-AIIO-Replica", member)
		resp.headers.Set("X-AIIO-Router-Attempts", strconv.Itoa(i+1))
		resp.write(w)
		return
	}
	// Every candidate refused. Relay the last upstream answer (its 429
	// Retry-After or breaker headers are meaningful to the client) over a
	// synthesized 502 for pure transport failure.
	rt.errors.Add(1)
	if lastResp != nil {
		lastResp.headers.Set("X-AIIO-Router-Attempts", strconv.Itoa(len(seq)))
		lastResp.write(w)
		return
	}
	writeJSON(w, http.StatusBadGateway, map[string]any{
		"error": fmt.Sprintf("every replica candidate failed: %v", lastErr),
	})
}

// attempt forwards one buffered request to one member and buffers the
// answer (bodies here are JSON documents, not streams; buffering lets the
// failover loop discard refusals cleanly).
func (rt *Router) attempt(r *http.Request, member string, body []byte) (*bufferedResponse, error) {
	url := member + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	resp, err := rt.cfg.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &bufferedResponse{status: resp.StatusCode, headers: make(http.Header, len(resp.Header))}
	copyHeaders(out.headers, resp.Header)
	out.body, err = io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody))
	if err != nil {
		return nil, fmt.Errorf("read upstream response: %w", err)
	}
	return out, nil
}

// bufferedResponse is one upstream answer held until the failover loop
// decides to relay it.
type bufferedResponse struct {
	status  int
	headers http.Header
	body    []byte
}

func (b *bufferedResponse) write(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.headers {
		h[k] = vs
	}
	h.Set("Content-Length", strconv.Itoa(len(b.body)))
	w.WriteHeader(b.status)
	w.Write(b.body)
}

// hopByHop are the connection-scoped headers a proxy must not relay.
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Connection": true,
	"Te": true, "Trailer": true, "Transfer-Encoding": true, "Upgrade": true,
	"Content-Length": true, // recomputed for the buffered body
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		dst[k] = append([]string(nil), vs...)
	}
}

// writeJSON is the router's response encoder (small bodies; no pooling
// needed at router request rates — the replicas do the heavy serving).
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
