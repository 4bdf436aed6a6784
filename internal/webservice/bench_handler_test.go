package webservice

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
)

// Satellite benchmarks for the pooled response encoder: writeJSON alone,
// and the full cached single-job handler path (read → digest → rendered
// bytes + advisories) that every hot repeat request takes. Run with:
//
//	go test ./internal/webservice/ -bench 'WriteJSON|DiagnoseHandler' -benchmem -run xxx

// nopResponseWriter discards the response so the benchmark measures the
// handler's own allocations, not a recorder's buffer growth.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

func benchResponse() *DiagnosisResponse {
	resp := &DiagnosisResponse{
		App:          "ior",
		ActualMiBps:  123.456,
		ClosestModel: "lightgbm",
		Robust:       true,
	}
	for i := 0; i < 2; i++ {
		resp.Models = append(resp.Models, ModelResult{Name: "m", PredictedMiBps: 100, Weight: 0.5})
	}
	for i := 0; i < 12; i++ {
		resp.Factors = append(resp.Factors, FactorJSON{Counter: "POSIX_SEQ_WRITES", Contribution: -0.25, Value: 42})
	}
	resp.Bottlenecks = resp.Factors[:4]
	return resp
}

func BenchmarkWriteJSON(b *testing.B) {
	resp := benchResponse()
	w := &nopResponseWriter{h: make(http.Header, 4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, resp)
	}
}

// BenchmarkDiagnoseHandlerCached is the full handler path on a warm cache in
// its steady state: the entry is frozen (asked for twice before the timer
// starts), so each iteration reads the body into a pooled buffer, hashes it
// and writes the rendered response — no parse, no advisor, no encode of the
// factors. This is the per-request overhead a replica pays at peak cache hit
// rate; over half of its allocations are the benchmark's own http.NewRequest
// (TestRenderedHitAllocations holds the handler's share to 10).
func BenchmarkDiagnoseHandlerCached(b *testing.B) {
	s := NewServer(ensemble(b), fastOpts())
	handler := s.Handler()
	var body bytes.Buffer
	if err := darshan.WriteLog(&body, testRecord()); err != nil {
		b.Fatal(err)
	}
	raw := body.Bytes()
	warm, _ := http.NewRequest(http.MethodPost, "/api/v1/diagnose", bytes.NewReader(raw))
	warm.Header.Set("Content-Type", "text/plain")
	w := &nopResponseWriter{h: make(http.Header, 8)}
	handler.ServeHTTP(w, warm) // fill the cache
	warm.Body = io.NopCloser(bytes.NewReader(raw))
	handler.ServeHTTP(w, warm) // second touch: freeze the entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, _ := http.NewRequest(http.MethodPost, "/api/v1/diagnose", bytes.NewReader(raw))
		req.Header.Set("Content-Type", "text/plain")
		clear(w.h)
		handler.ServeHTTP(w, req)
	}
}
