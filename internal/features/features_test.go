package features

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hpc-repro/aiio/internal/darshan"
)

func TestTransformProperties(t *testing.T) {
	if Transform(0) != 0 {
		t.Error("Transform(0) must be 0 (sparsity preservation)")
	}
	if math.Abs(Transform(9)-1) > 1e-12 {
		t.Errorf("Transform(9) = %v, want 1", Transform(9))
	}
	// Monotone + inverse round-trip property.
	f := func(raw float64) bool {
		v := math.Abs(math.Mod(raw, 1e9))
		tv := Transform(v)
		if Transform(v+1) < tv {
			return false
		}
		back := Inverse(tv)
		return math.Abs(back-v) <= 1e-6*(1+v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformReducesRange(t *testing.T) {
	// The paper's Fig. 4 rationale: (1, 6309573) maps into (0.3, 6.8).
	lo, hi := Transform(1), Transform(6309573)
	if lo < 0.3 || lo > 0.31 {
		t.Errorf("Transform(1) = %v", lo)
	}
	if hi < 6.7 || hi > 6.9 {
		t.Errorf("Transform(6309573) = %v", hi)
	}
}

func TestTransformRecordAndVector(t *testing.T) {
	rec := &darshan.Record{}
	rec.SetCounter(darshan.PosixReads, 99)
	x := TransformRecord(rec)
	if len(x) != int(darshan.NumCounters) {
		t.Fatalf("len = %d", len(x))
	}
	if x[darshan.PosixReads] != 2 {
		t.Errorf("transformed POSIX_READS = %v, want 2", x[darshan.PosixReads])
	}
}

func buildFrame(n int) *Frame {
	ds := &darshan.Dataset{}
	for i := 0; i < n; i++ {
		rec := &darshan.Record{JobID: int64(i), PerfMiBps: float64(i + 1)}
		rec.SetCounter(darshan.PosixWrites, float64(i))
		ds.Append(rec)
	}
	return Build(ds)
}

func TestBuildAndSubset(t *testing.T) {
	f := buildFrame(10)
	if f.Len() != 10 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.Y[3] != Transform(4) {
		t.Errorf("Y[3] = %v", f.Y[3])
	}
	if f.X.At(5, int(darshan.PosixWrites)) != Transform(5) {
		t.Error("X not transformed")
	}
	sub := f.Subset([]int{2, 7})
	if sub.Len() != 2 || sub.Records[1].JobID != 7 {
		t.Errorf("Subset wrong: %+v", sub.Records)
	}
	defer func() {
		if recover() == nil {
			t.Error("Subset accepted out-of-range index")
		}
	}()
	f.Subset([]int{99})
}

func TestSplitIsPartition(t *testing.T) {
	f := buildFrame(101)
	train, eval := f.Split(7, 0.5)
	if train.Len()+eval.Len() != f.Len() {
		t.Fatalf("split sizes %d + %d != %d", train.Len(), eval.Len(), f.Len())
	}
	seen := map[int64]int{}
	for _, r := range train.Records {
		seen[r.JobID]++
	}
	for _, r := range eval.Records {
		seen[r.JobID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("job %d appears %d times", id, n)
		}
	}
	// Same seed same split; different seed different split.
	train2, _ := f.Split(7, 0.5)
	if train.Records[0].JobID != train2.Records[0].JobID {
		t.Error("split not deterministic")
	}
}

func TestRMSE(t *testing.T) {
	if RMSE(nil, nil) != 0 {
		t.Error("empty RMSE should be 0")
	}
	got := RMSE([]float64{1, 2}, []float64{1, 4})
	if math.Abs(got-math.Sqrt(2)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("RMSE accepted mismatched lengths")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestSanitizeClampsHostileValues(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{-3, 0},
		{0, 0},
		{42, 42},
		{1.5, 1.5},
	}
	for _, c := range cases {
		if got := Sanitize(c.in); got != c.want {
			t.Errorf("Sanitize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBuildSanitizesCorruptRecords(t *testing.T) {
	rec := &darshan.Record{PerfMiBps: math.NaN()}
	rec.Counters[0] = math.Inf(1)
	rec.Counters[1] = -7
	rec.Counters[2] = math.NaN()
	rec.Counters[3] = 100
	ds := &darshan.Dataset{Records: []*darshan.Record{rec}}
	f := Build(ds)
	if err := f.Validate(); err != nil {
		t.Fatalf("Build let a non-finite value through: %v", err)
	}
	for j := 0; j < 3; j++ {
		if got := f.X.At(0, j); got != 0 {
			t.Errorf("corrupt counter %d transformed to %v, want 0", j, got)
		}
	}
	if got, want := f.X.At(0, 3), Transform(100); got != want {
		t.Errorf("clean counter transformed to %v, want %v", got, want)
	}
	if f.Y[0] != 0 {
		t.Errorf("NaN performance tag transformed to %v, want 0", f.Y[0])
	}

	x := TransformRecord(rec)
	for j := 0; j < 3; j++ {
		if x[j] != 0 {
			t.Errorf("TransformRecord kept corrupt counter %d: %v", j, x[j])
		}
	}
}

func TestFrameValidateFlagsHandMadeNaN(t *testing.T) {
	ds := &darshan.Dataset{Records: []*darshan.Record{{PerfMiBps: 10}}}
	f := Build(ds)
	if err := f.Validate(); err != nil {
		t.Fatalf("clean frame: %v", err)
	}
	f.X.Set(0, 5, math.NaN())
	if err := f.Validate(); err == nil {
		t.Fatal("Validate missed a NaN feature")
	}
	f.X.Set(0, 5, 0)
	f.Y[0] = math.Inf(-1)
	if err := f.Validate(); err == nil {
		t.Fatal("Validate missed a -Inf target")
	}
}
