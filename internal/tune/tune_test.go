package tune

import (
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/iosim"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/workload"
)

var (
	once sync.Once
	ens  *core.Ensemble
	tErr error
)

func ensemble(t *testing.T) *core.Ensemble {
	t.Helper()
	once.Do(func() {
		ds := logdb.Generate(logdb.GenConfig{Jobs: 900, Seed: 41})
		opts := core.DefaultTrainOptions()
		opts.Fast = true
		ens, _, tErr = core.TrainEnsemble(features.Build(ds), opts)
	})
	if tErr != nil {
		t.Fatalf("train: %v", tErr)
	}
	return ens
}

func diagOpts() core.DiagnoseOptions {
	o := core.DefaultDiagnoseOptions()
	o.SHAP.MaxExact = 10
	o.SHAP.NSamples = 1024
	return o
}

func runPattern(t *testing.T, id int) *darshan.Record {
	t.Helper()
	p := iosim.DefaultParams()
	p.NoiseSigma = 0
	cfg := workload.Patterns()[id-1].Config.Scale(16, 4)
	rec, _ := cfg.Run("ior", int64(id), int64(id), p)
	return rec
}

func adviseOn(t *testing.T, rec *darshan.Record) []Recommendation {
	t.Helper()
	e := ensemble(t)
	diag, err := e.Diagnose(rec, diagOpts())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := New(e).Advise(diag, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func hasAction(recs []Recommendation, action string) bool {
	for _, r := range recs {
		if r.Action == action {
			return true
		}
	}
	return false
}

func TestAdvisorRecommendsLargerWrites(t *testing.T) {
	recs := adviseOn(t, runPattern(t, 1)) // small synced writes
	if len(recs) == 0 {
		t.Fatal("no recommendations for the canonical slow job")
	}
	if !hasAction(recs, "increase-transfer-size") {
		names := make([]string, len(recs))
		for i, r := range recs {
			names[i] = r.Action
		}
		t.Fatalf("increase-transfer-size not recommended; got %v", names)
	}
	for _, r := range recs {
		if r.Action != "increase-transfer-size" {
			continue
		}
		// The paper's fix gives ~100x; the model-predicted gain must at
		// least be a large factor.
		if r.PredictedGain < 5 {
			t.Errorf("predicted gain %.2fx for larger writes; expected substantial", r.PredictedGain)
		}
	}
	// Recommendations are sorted best-first.
	for i := 1; i < len(recs); i++ {
		if recs[i].PredictedGain > recs[i-1].PredictedGain {
			t.Fatal("recommendations not sorted by gain")
		}
	}
}

func TestAdvisorRecommendsSeekRemoval(t *testing.T) {
	recs := adviseOn(t, runPattern(t, 2)) // seek-per-read
	if !hasAction(recs, "remove-redundant-seeks") && !hasAction(recs, "increase-read-size") {
		names := make([]string, len(recs))
		for i, r := range recs {
			names[i] = r.Action
		}
		t.Errorf("no seek/read-size advice for the Fig. 8 job; got %v", names)
	}
}

func TestAdvisorRecommendsFileMerging(t *testing.T) {
	// DASSA-like record: many opens per rank.
	p := iosim.DefaultParams()
	p.NoiseSigma = 0
	cfg := appsDassa()
	rec, _ := iosim.Run(cfg, p)
	recs := adviseOn(t, rec)
	if !hasAction(recs, "merge-files") {
		names := make([]string, len(recs))
		for i, r := range recs {
			names[i] = r.Action
		}
		t.Errorf("merge-files not recommended for a many-files job; got %v", names)
	}
}

// appsDassa builds a many-small-files read job without importing
// internal/apps (keeps this package's dependencies minimal).
func appsDassa() iosim.Job {
	return iosim.Job{
		Name: "many-files", NProcs: 8, FS: iosim.DefaultFS(), Seed: 3,
		Gen: func(rank int, emit func(darshan.Op)) {
			// Metadata-dominated: 96 tiny files per rank, one small read each.
			for f := int32(0); f < 96; f++ {
				emit(darshan.Op{Kind: darshan.OpOpen, File: f})
				emit(darshan.Op{Kind: darshan.OpStat, File: f})
				emit(darshan.Op{Kind: darshan.OpRead, File: f, Offset: 0, Size: 32 * 1024})
				emit(darshan.Op{Kind: darshan.OpClose, File: f})
			}
		},
	}
}

func TestCounterfactualsAreValidRecords(t *testing.T) {
	rec := runPattern(t, 5) // random writes: several transforms apply
	for _, tr := range catalog() {
		cf := tr.rewrite(rec)
		if err := cf.Validate(); err != nil {
			t.Errorf("transform %s produced invalid record: %v", tr.action, err)
		}
		if cf == rec {
			t.Errorf("transform %s returned the original record", tr.action)
		}
	}
	// The original record must not be mutated by any transform.
	again := runPattern(t, 5)
	if *rec != *again {
		t.Fatal("transforms mutated the input record")
	}
}

func TestAdvisorOnCleanJobIsQuiet(t *testing.T) {
	// A large sequential well-striped write should attract little advice.
	p := iosim.DefaultParams()
	p.NoiseSigma = 0
	cfg := workload.DefaultIOR()
	cfg.Write = true
	cfg.TransferSize = 1 << 20
	cfg.BlockSize = 16 << 20
	cfg.NProcs = 8
	cfg.FS = iosim.FSConfig{StripeSize: 4 << 20, StripeWidth: 8}
	rec, _ := cfg.Run("ior", 9, 9, p)
	recs := adviseOn(t, rec)
	if hasAction(recs, "increase-transfer-size") || hasAction(recs, "merge-files") {
		t.Errorf("spurious advice for a clean job: %+v", recs)
	}
}

func TestAdviseErrors(t *testing.T) {
	if _, err := New(ensemble(t)).Advise(nil, 1.0); err == nil {
		t.Error("nil diagnosis accepted")
	}
}

// adviseOracle is the advisor with per-record predictions: one single-row
// Predict per model for the baseline and again for each applicable
// counterfactual, the terms summed in model order.
func adviseOracle(ens *core.Ensemble, diag *core.Diagnosis, minGain float64) []Recommendation {
	predict := func(rec *darshan.Record) float64 {
		x := features.TransformRecord(rec)
		s := 0.0
		for _, m := range ens.Models {
			s += m.Predict(x)
		}
		return features.Inverse(s / float64(len(ens.Models)))
	}
	neg := map[darshan.CounterID]bool{}
	for _, f := range diag.Bottlenecks() {
		neg[f.Counter] = true
	}
	baseline := predict(diag.Record)
	var out []Recommendation
	for _, tr := range catalog() {
		if !tr.applies(neg, diag.Record) {
			continue
		}
		pred := predict(tr.rewrite(diag.Record))
		gain := 1.0
		if baseline > 0 {
			gain = pred / baseline
		}
		if gain < minGain {
			continue
		}
		out = append(out, Recommendation{Action: tr.action, Description: tr.description,
			Counters: tr.counters, PredictedMiBps: pred, PredictedGain: gain})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PredictedGain > out[j].PredictedGain })
	return out
}

// TestBatchedAdviceMatchesPerRecordOracle pins the batched advisor: one
// PredictBatch per model over the baseline and all counterfactuals must give
// recommendations bitwise equal to per-record Predict calls — same actions,
// same order, same predicted MiB/s and gains.
func TestBatchedAdviceMatchesPerRecordOracle(t *testing.T) {
	e := ensemble(t)
	p := iosim.DefaultParams()
	p.NoiseSigma = 0
	dassa, _ := iosim.Run(appsDassa(), p)
	recs := []*darshan.Record{runPattern(t, 1), runPattern(t, 2), runPattern(t, 5), dassa}
	compared := 0
	for i, rec := range recs {
		diag, err := e.Diagnose(rec, diagOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, minGain := range []float64{0, 1.05} {
			got, err := New(e).Advise(diag, minGain)
			if err != nil {
				t.Fatal(err)
			}
			want := adviseOracle(e, diag, minGain)
			if len(got) != len(want) {
				t.Fatalf("record %d minGain %v: %d recommendations, oracle %d", i, minGain, len(got), len(want))
			}
			for k := range got {
				g, w := got[k], want[k]
				if g.Action != w.Action ||
					math.Float64bits(g.PredictedMiBps) != math.Float64bits(w.PredictedMiBps) ||
					math.Float64bits(g.PredictedGain) != math.Float64bits(w.PredictedGain) {
					t.Fatalf("record %d minGain %v rec %d: got %s %v MiB/s ×%v, oracle %s %v MiB/s ×%v",
						i, minGain, k, g.Action, g.PredictedMiBps, g.PredictedGain, w.Action, w.PredictedMiBps, w.PredictedGain)
				}
			}
			compared += len(got)
		}
	}
	if compared == 0 {
		t.Fatal("no recommendation was compared")
	}
}
