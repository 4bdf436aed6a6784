package drift_test

import (
	"math"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/drift"
	"github.com/hpc-repro/aiio/internal/faults"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// jobs generates n deterministic synthetic records.
func jobs(t testing.TB, n int, seed int64) []*darshan.Record {
	t.Helper()
	ds := logdb.Generate(logdb.GenConfig{Jobs: n, Seed: seed})
	if ds.Len() != n {
		t.Fatalf("generated %d jobs, want %d", ds.Len(), n)
	}
	return ds.Records
}

func TestPSIStableOnSameDistribution(t *testing.T) {
	ref := jobs(t, 500, 1)
	live := jobs(t, 500, 2) // same generator, different draw
	m := drift.New(drift.Config{MinSamples: 100})
	m.SetReference(drift.BuildReference(ref))
	for _, rec := range live {
		m.Observe(rec)
	}
	st := m.Snapshot()
	if !st.Armed {
		t.Fatal("monitor should be armed after SetReference")
	}
	if st.WindowJobs != len(live) {
		t.Fatalf("WindowJobs = %d, want %d", st.WindowJobs, len(live))
	}
	if st.MaxPSI >= 0.25 {
		t.Fatalf("same-distribution MaxPSI = %.4f, want < 0.25 (top: %+v)", st.MaxPSI, st.Top)
	}
	if st.Tripped {
		t.Fatalf("same-distribution snapshot tripped: %+v", st)
	}
}

func TestPSITripsOnDistributionShift(t *testing.T) {
	ref := jobs(t, 500, 1)
	shifted := faults.ShiftDataset(jobs(t, 300, 2), 1000, 1_000_000)
	m := drift.New(drift.Config{MinSamples: 100})
	m.SetReference(drift.BuildReference(ref))
	for _, rec := range shifted {
		m.Observe(rec)
	}
	tripped, st := m.Tripped()
	if !tripped {
		t.Fatalf("1000x shift did not trip (MaxPSI %.4f, window %d)", st.MaxPSI, st.WindowJobs)
	}
	if st.TrippedBy != "input-distribution" {
		t.Fatalf("TrippedBy = %q, want input-distribution", st.TrippedBy)
	}
	if len(st.Drifted) == 0 {
		t.Fatal("tripped status lists no drifted counters")
	}
	for i := 1; i < len(st.Drifted); i++ {
		if st.Drifted[i].PSI > st.Drifted[i-1].PSI {
			t.Fatalf("Drifted not sorted worst-first at %d: %+v", i, st.Drifted)
		}
	}
	if st.Drifted[0].PSI != st.MaxPSI {
		t.Fatalf("worst drifted counter PSI %.4f != MaxPSI %.4f", st.Drifted[0].PSI, st.MaxPSI)
	}
}

func TestPSINeedsMinSamples(t *testing.T) {
	ref := jobs(t, 500, 1)
	shifted := faults.ShiftDataset(jobs(t, 30, 2), 1000, 1_000_000)
	m := drift.New(drift.Config{MinSamples: 100})
	m.SetReference(drift.BuildReference(ref))
	for _, rec := range shifted {
		m.Observe(rec)
	}
	if tripped, st := m.Tripped(); tripped {
		t.Fatalf("tripped on %d jobs below MinSamples 100: %+v", st.WindowJobs, st)
	}
}

func TestErrorTrackerTrips(t *testing.T) {
	m := drift.New(drift.Config{MinErrors: 20})
	ref := drift.BuildReference(jobs(t, 200, 1))
	ref.BaselineRMSE = 0.1
	m.SetReference(ref)
	// Errors at exactly 2x the baseline RMSE: over the default 1.5 ratio.
	for i := 0; i < 25; i++ {
		m.ObserveError(0.2, 0)
	}
	tripped, st := m.Tripped()
	if !tripped || st.TrippedBy != "prediction-error" {
		t.Fatalf("error spike did not trip (tripped=%v by=%q ratio=%.2f obs=%d)",
			tripped, st.TrippedBy, st.ErrorRatio, st.ErrorObs)
	}
	if math.Abs(st.RollingRMSE-0.2) > 1e-9 {
		t.Fatalf("RollingRMSE = %.6f, want 0.2", st.RollingRMSE)
	}
	// ResetErrors (promotion/rollback) clears the trip.
	m.ResetErrors()
	if tripped, st := m.Tripped(); tripped {
		t.Fatalf("still tripped after ResetErrors: %+v", st)
	}
}

func TestErrorTrackerIgnoresNonFinite(t *testing.T) {
	m := drift.New(drift.Config{})
	m.ObserveError(math.NaN(), 0)
	m.ObserveError(math.Inf(1), 0)
	m.ObserveError(0, math.Inf(-1))
	if _, n := m.RollingRMSE(); n != 0 {
		t.Fatalf("non-finite errors were recorded: n=%d", n)
	}
}

func TestSelfArmThenTrip(t *testing.T) {
	m := drift.New(drift.Config{MinSamples: 50})
	normal := jobs(t, 100, 1)
	for _, rec := range normal {
		m.Observe(rec)
	}
	st := m.Snapshot()
	if !st.Armed {
		t.Fatalf("monitor did not self-arm after %d jobs", len(normal))
	}
	if st.ReferenceJobs != 100 {
		t.Fatalf("self-armed ReferenceJobs = %d, want 100", st.ReferenceJobs)
	}
	if st.WindowJobs != 0 {
		t.Fatalf("self-arm should reset the live window, WindowJobs = %d", st.WindowJobs)
	}
	for _, rec := range faults.ShiftDataset(jobs(t, 60, 2), 1000, 1_000_000) {
		m.Observe(rec)
	}
	if tripped, st := m.Tripped(); !tripped || st.TrippedBy != "input-distribution" {
		t.Fatalf("shift after self-arm did not trip: %+v", st)
	}
}

// TestSelfArmNeedsHalfAWindow pins Config.Check's boundary: at MinSamples =
// Window/2 the monitor self-arms on the Window-th job, and one more sample
// is refused, because that monitor's live window rotates before it ever
// holds the 2×MinSamples jobs self-arming needs.
func TestSelfArmNeedsHalfAWindow(t *testing.T) {
	const window = 100
	edge := drift.Config{MinSamples: window / 2, Window: window}
	if err := edge.Check(); err != nil {
		t.Fatalf("MinSamples = Window/2 refused: %v", err)
	}
	m := drift.New(edge)
	for i, rec := range jobs(t, window, 1) {
		if m.Snapshot().Armed {
			t.Fatalf("armed after %d jobs, want %d", i, window)
		}
		m.Observe(rec)
	}
	if !m.Snapshot().Armed {
		t.Fatalf("MinSamples = Window/2 did not self-arm after %d jobs", window)
	}

	over := drift.Config{MinSamples: window/2 + 1, Window: window}
	if err := over.Check(); err == nil {
		t.Fatal("MinSamples = Window/2 + 1 accepted")
	}
	m = drift.New(over)
	for _, rec := range jobs(t, 5*window, 1) {
		m.Observe(rec)
	}
	if m.Snapshot().Armed {
		t.Fatal("the refused pair armed after all")
	}
	// The same rule holds after defaults (Window 2000).
	if err := (drift.Config{MinSamples: 1500}).Check(); err == nil {
		t.Fatal("MinSamples 1500 with the default Window accepted")
	}
	if err := (drift.Config{}).Check(); err != nil {
		t.Fatalf("the defaults refused: %v", err)
	}
}

func TestWindowRotationAgesOutOldTraffic(t *testing.T) {
	ref := jobs(t, 200, 1)
	// A 100-job window against a 200-job reference carries sampling noise
	// worth ~0.2-0.3 PSI on the noisiest counter; 0.5 separates the real
	// 1000x shift (PSI >> 1) from that noise.
	m := drift.New(drift.Config{MinSamples: 50, Window: 100, PSIThreshold: 0.5})
	m.SetReference(drift.BuildReference(ref))
	// A burst of shifted traffic trips the monitor...
	for _, rec := range faults.ShiftDataset(jobs(t, 100, 2), 1000, 1_000_000) {
		m.Observe(rec)
	}
	if tripped, _ := m.Tripped(); !tripped {
		t.Fatal("shifted burst did not trip")
	}
	// ...then two full windows of normal traffic age the burst out.
	for _, rec := range jobs(t, 200, 3) {
		m.Observe(rec)
	}
	st := m.Snapshot()
	if st.WindowJobs > 200 {
		t.Fatalf("rotating window holds %d jobs, want <= 2x Window", st.WindowJobs)
	}
	if st.Tripped {
		t.Fatalf("monitor still tripped after burst aged out: MaxPSI %.4f", st.MaxPSI)
	}
}

func TestReferenceRoundTrip(t *testing.T) {
	ref := drift.BuildReference(jobs(t, 100, 1))
	ref.BaselineRMSE = 0.42
	data, err := ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := drift.ParseReference(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Jobs != ref.Jobs || back.BaselineRMSE != ref.BaselineRMSE {
		t.Fatalf("round trip lost scalars: %+v vs %+v", back.Jobs, ref.Jobs)
	}
	if back.Counters != ref.Counters {
		t.Fatal("round trip lost histogram bins")
	}
	if _, err := drift.ParseReference([]byte("{")); err == nil {
		t.Fatal("truncated reference parsed without error")
	}
}

func TestMonitorConcurrentUse(t *testing.T) {
	m := drift.New(drift.Config{MinSamples: 50, Window: 100})
	recs := jobs(t, 200, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, rec := range recs {
				m.Observe(rec)
				m.ObserveError(features.Transform(rec.PerfMiBps), 0.5)
				if i%17 == 0 {
					m.Snapshot()
				}
				if i%43 == 0 {
					m.ResetErrors()
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Snapshot()
	if !st.Armed {
		t.Fatal("monitor never armed under concurrency")
	}
}
