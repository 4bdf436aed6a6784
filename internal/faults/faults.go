// Package faults is a deterministic fault-injection harness for AIIO's
// robustness tests. It wraps trained models and log readers with seeded,
// reproducible failure modes — panics, NaN outputs, injected latency,
// corrupted or truncated byte streams — so the chaos suite can prove that
// every failure degrades the pipeline (skipped model, quarantined record,
// request timeout) instead of crashing it.
//
// Everything here is deterministic: the same seed and rate always corrupt
// the same bytes, and call-count triggers fire at the same call. A flaky
// chaos suite is worse than none.
package faults

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/durable"
	"github.com/hpc-repro/aiio/internal/linalg"
)

// FaultyModel wraps a core.Model and injects failures into its predictions.
// The zero value of every knob is "off", so FaultyModel{Model: m} is a
// transparent wrapper. Because the wrapper hides the concrete model type,
// core's TreeSHAP fast path is disabled and every SHAP evaluation flows
// through Predict/PredictBatch — faults cannot be bypassed.
type FaultyModel struct {
	core.Model

	// PanicOn makes every prediction panic.
	PanicOn bool
	// NaNOn makes every prediction return NaN.
	NaNOn bool
	// Latency is slept before each Predict/PredictBatch call.
	Latency time.Duration
	// FailAfter, when > 0, lets the first FailAfter prediction calls
	// through and panics on every later one — a model that works until
	// it doesn't.
	FailAfter int64

	calls atomic.Int64
}

// Calls reports how many prediction calls the wrapper has seen.
func (f *FaultyModel) Calls() int64 { return f.calls.Load() }

func (f *FaultyModel) arm() {
	n := f.calls.Add(1)
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	if f.PanicOn {
		panic("faults: injected model panic")
	}
	if f.FailAfter > 0 && n > f.FailAfter {
		panic("faults: injected model panic (FailAfter exceeded)")
	}
}

// Predict applies the configured faults, then delegates.
func (f *FaultyModel) Predict(x []float64) float64 {
	f.arm()
	if f.NaNOn {
		return math.NaN()
	}
	return f.Model.Predict(x)
}

// PredictBatch applies the configured faults, then delegates. A batch
// counts as one call for FailAfter purposes.
func (f *FaultyModel) PredictBatch(x *linalg.Matrix) []float64 {
	f.arm()
	if f.NaNOn {
		out := make([]float64, x.Rows)
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	return f.Model.PredictBatch(x)
}

// Break replaces model i of ens with fault (whose Model field it fills in
// with the original model), returning a new ensemble; the original is
// untouched. The caller keeps fault for call inspection.
func Break(ens *core.Ensemble, i int, fault *FaultyModel) *core.Ensemble {
	out := &core.Ensemble{Models: append([]core.Model(nil), ens.Models...)}
	fault.Model = ens.Models[i]
	out.Models[i] = fault
	return out
}

// CorruptStream returns a reader that deterministically mangles lines of r:
// each line is corrupted with probability rate (seeded by seed), by either
// replacing its value field with garbage, flipping a byte, or dropping the
// line entirely. Line structure is otherwise preserved, so a corrupted
// Darshan log stream still splits into records — most of which the lenient
// parser must quarantine rather than choke on.
func CorruptStream(r io.Reader, rate float64, seed int64) io.Reader {
	rng := rand.New(rand.NewSource(seed))
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		if rng.Float64() < rate && len(line) > 0 {
			switch rng.Intn(3) {
			case 0: // hostile value
				out.WriteString("POSIX_READS\tNaN\n")
				continue
			case 1: // flip a byte mid-line
				b := []byte(line)
				b[rng.Intn(len(b))] ^= 0x5a
				line = string(b)
			case 2: // drop the line
				continue
			}
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return &errReader{err: err}
	}
	return &out
}

// TruncateReader returns a reader that yields at most n bytes of r and then
// reports io.EOF — a log stream cut off mid-record.
func TruncateReader(r io.Reader, n int64) io.Reader {
	return io.LimitReader(r, n)
}

// ErrReader returns a reader that yields the first n bytes of r and then
// fails with err — a disk or network fault mid-read.
func ErrReader(r io.Reader, n int64, err error) io.Reader {
	return io.MultiReader(io.LimitReader(r, n), &errReader{err: err})
}

type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }

// ErrInjectedCrash is the error every crash injector aborts with: the
// moral equivalent of kill -9 landing mid-commit. The store must treat the
// operation as lost, and the next open or load must recover the last
// committed state.
var ErrInjectedCrash = errors.New("faults: injected crash at a durable step")

// CrashAfterSteps returns a durable-step hook — for core.Store.SetHook or
// joblog.Store.SetHook — that lets the first n durable steps through and
// "crashes" — aborts the operation with ErrInjectedCrash, leaving whatever
// partial on-disk state exists at that point — on step n+1. n=0 crashes at
// the very first step. The hook is safe for reuse across operations; the
// step count is cumulative, matching a process that dies once.
func CrashAfterSteps(n int) durable.Hook {
	var calls atomic.Int64
	return func(step, path string) error {
		if calls.Add(1) > int64(n) {
			return ErrInjectedCrash
		}
		return nil
	}
}

// CrashAtStep returns a durable-step hook that crashes at the first
// occurrence of the named step (a core.Step* or joblog.Step* constant) and
// passes every other step through — a crash aimed at a specific durability
// window, e.g. core.StepGenCommit to die right before the generation
// rename.
func CrashAtStep(target string) durable.Hook {
	return func(step, path string) error {
		if step == target {
			return ErrInjectedCrash
		}
		return nil
	}
}

// Flood fires n concurrent invocations of fn (called with 0..n-1) and
// returns each call's error, indexed by invocation. It is the traffic
// half of the chaos kit: point it at a web service endpoint at 10× the
// admission limit and assert the server sheds instead of falling over.
// All invocations start together (a true thundering herd), not staggered
// by goroutine spawn order.
func Flood(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = fn(i)
		}(i)
	}
	close(start)
	wg.Wait()
	return errs
}

// ShiftRecord returns a copy of rec with every counter and the performance
// tag scaled by factor — a whole-distribution shift, as if the workload
// moved to files and request sizes factor× larger. With a positive integer
// factor and integer-valued counters (the synthetic generator's output),
// scaling is exact in float64, so every linear invariant Record.Validate
// checks (size-histogram sums, consecutive ≤ sequential, per-op caps)
// survives bit-for-bit: a shifted record passes the ingest boundary and
// lands on the drift monitor, not in quarantine. In the transformed
// (log10) feature domain the shift moves every non-zero counter right by
// ≈log10(factor), which is exactly the population shift the PSI sketches
// exist to catch.
func ShiftRecord(rec *darshan.Record, factor float64) *darshan.Record {
	out := *rec
	for i := range out.Counters {
		out.Counters[i] *= factor
	}
	out.PerfMiBps *= factor
	return &out
}

// ShiftDataset applies ShiftRecord to every record, returning the shifted
// copies with distinct JobIDs (offset by idOffset) so the joblog's dedup
// index sees them as new jobs rather than retries.
func ShiftDataset(recs []*darshan.Record, factor float64, idOffset int64) []*darshan.Record {
	out := make([]*darshan.Record, len(recs))
	for i, rec := range recs {
		s := ShiftRecord(rec, factor)
		s.JobID += idOffset
		out[i] = s
	}
	return out
}

// ConstantModel is a core.Model that predicts the same transformed value
// for every input — the canonical "confidently wrong" candidate. A canary
// gate that cannot block it is not a gate; a rollback watch that cannot
// detect it serving is not a watch.
type ConstantModel struct {
	// Value is the prediction, in the transformed (log10) domain.
	Value float64
	// ModelName is reported by Name (default "constant").
	ModelName string
}

func (c *ConstantModel) Name() string {
	if c.ModelName != "" {
		return c.ModelName
	}
	return "constant"
}

func (c *ConstantModel) Kind() string { return "constant" }

func (c *ConstantModel) Predict(x []float64) float64 { return c.Value }

func (c *ConstantModel) PredictBatch(x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = c.Value
	}
	return out
}

// Save writes a one-line marker; ConstantModel exists for in-memory fault
// injection and has no durable format worth versioning.
func (c *ConstantModel) Save(w io.Writer) error {
	_, err := fmt.Fprintf(w, "constant %g\n", c.Value)
	return err
}
