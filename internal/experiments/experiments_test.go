package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/core"
)

var (
	envOnce sync.Once
	testEnv *Env
)

// sharedEnv trains the ensemble once for the whole package.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		testEnv = NewEnv(true)
	})
	if _, _, err := testEnv.Ensemble(); err != nil {
		t.Fatalf("ensemble: %v", err)
	}
	return testEnv
}

func TestTable1(t *testing.T) {
	e := sharedEnv(t)
	var sb strings.Builder
	res, err := RunTable1(e, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != e.DBJobs {
		t.Errorf("TotalJobs = %d", res.TotalJobs)
	}
	if res.AvgSparsity <= 0 || res.AvgSparsity >= 1 {
		t.Errorf("sparsity = %v", res.AvgSparsity)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("report missing header")
	}
	// Year proportions roughly follow Table 1: 2019 and 2021 dominate.
	if res.Years[2019] < res.Years[2022] || res.Years[2021] < res.Years[2022] {
		t.Errorf("year distribution off: %v", res.Years)
	}
}

func TestTable2MergingBeatsWorstSingle(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunTable2(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictionImprovement <= 1 {
		t.Errorf("prediction improvement %.2fx, want > 1x (paper: 3.11x)", res.PredictionImprovement)
	}
	if res.DiagnosisImprovement <= 1 {
		t.Errorf("diagnosis improvement %.2fx, want > 1x (paper: 2.19x)", res.DiagnosisImprovement)
	}
}

func TestTable3(t *testing.T) {
	var sb strings.Builder
	pats, err := RunTable3(NewEnv(true), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 6 {
		t.Errorf("%d patterns", len(pats))
	}
	if !strings.Contains(sb.String(), "ior -w -t 1k -b 1m -Y") {
		t.Error("Table 3 missing the Fig. 7 config")
	}
}

func TestFigure1GroupVsJob(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunFigure1(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMemberAbsErr <= res.GroupAbsErr {
		t.Error("per-member error does not exceed the group average (Fig. 1a)")
	}
	if res.AIIOZeroAttributions != 0 {
		t.Errorf("AIIO assigned impact to %d zero counters", res.AIIOZeroAttributions)
	}
	// Gauge's cluster-mean background is expected to be non-robust; allow 0
	// only if the member had no zero counters at all (checked in gauge's
	// own tests).
}

func TestFigure4Transform(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunFigure4(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransformedMax-res.TransformedMin >= res.RawMax-res.RawMin {
		t.Error("transform did not compress the range")
	}
	if res.TransformedMax > 8 {
		t.Errorf("transformed max %.2f implausibly high", res.TransformedMax)
	}
}

func TestFigure5Scatter(t *testing.T) {
	e := sharedEnv(t)
	corr, err := RunFigure5(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The relationship is neither perfectly linear nor absent.
	if corr <= -1 || corr >= 1 {
		t.Errorf("correlation = %v", corr)
	}
}

func TestFigure6FiveModels(t *testing.T) {
	e := sharedEnv(t)
	var sb strings.Builder
	res, err := RunFigure6(e, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerModelMiBps) != 5 {
		t.Errorf("got %d model predictions", len(res.PerModelMiBps))
	}
	for name, p := range res.PerModelMiBps {
		if p <= 0 {
			t.Errorf("model %s predicted %v MiB/s", name, p)
		}
	}
	if !res.Diag.IsRobust() {
		t.Error("Figure 6 diagnosis not robust")
	}
	if !strings.Contains(sb.String(), "merged") {
		t.Error("merged view missing")
	}
}

func TestPatternsEndToEnd(t *testing.T) {
	e := sharedEnv(t)
	for id := 1; id <= 6; id++ {
		id := id
		t.Run(pattern(id).Figure, func(t *testing.T) {
			res, err := RunPattern(e, io.Discard, id)
			if err != nil {
				t.Fatal(err)
			}
			if res.Speedup <= 1 {
				t.Errorf("tuning gave %.2fx", res.Speedup)
			}
			if !res.UntunedDiag.IsRobust() || !res.TunedDiag.IsRobust() {
				t.Error("diagnosis not robust")
			}
			if !res.ExpectedFlagged {
				t.Errorf("expected bottlenecks %v not all flagged; top: %v",
					res.Pattern.ExpectedBottlenecks,
					factorNames(res.UntunedDiag.Bottlenecks(), topNegativeWindow))
			}
		})
	}
}

func TestAppsEndToEnd(t *testing.T) {
	e := sharedEnv(t)
	cases := []struct {
		name string
		run  func(*Env, io.Writer) (*AppResult, error)
		min  float64
	}{
		{"E2E", RunFigure13, 10},      // paper 146x; scaled-down floor 10x
		{"OpenPMD", RunFigure14, 1.2}, // paper 1.82x
		{"DASSA", RunFigure15, 1.2},   // paper 2.1x
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(e, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Speedup < tc.min {
				t.Errorf("%s speedup %.2fx < %.2fx", tc.name, res.Speedup, tc.min)
			}
			if !res.ExpectedFlagged {
				t.Errorf("%s expected bottleneck not flagged; top: %v", tc.name,
					factorNames(res.UntunedDiag.Bottlenecks(), topNegativeWindow))
			}
			if !res.UntunedDiag.IsRobust() {
				t.Error("diagnosis not robust")
			}
		})
	}
}

func TestFigure16LossCurve(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunFigure16(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EvalLoss) < 2 {
		t.Fatal("loss curve too short")
	}
	if res.EvalLoss[len(res.EvalLoss)-1] >= res.EvalLoss[0] {
		t.Error("eval loss did not improve over training")
	}
}

func TestFigure17WebService(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunFigure17(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Models != 5 {
		t.Errorf("service exposed %d models", res.Models)
	}
	if !res.Robust {
		t.Error("service diagnosis not robust")
	}
	if res.Bottlenecks == 0 {
		t.Error("service found no bottlenecks for the canonical slow job")
	}
}

func TestExtensionClassification(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunExtensionClassification(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Accuracy < 0.8 {
		t.Errorf("classifier accuracy %.3f < 0.8", res.Metrics.Accuracy)
	}
	if res.MacroF1 < 0.7 {
		t.Errorf("macro F1 %.3f < 0.7", res.MacroF1)
	}
	if res.AIIOAgreement < 0.25 {
		t.Errorf("AIIO top-counter agreement %.3f implausibly low", res.AIIOAgreement)
	}
}

func TestAblationRules(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunAblationRules(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns != 6 {
		t.Fatalf("ran %d patterns", res.Patterns)
	}
	if res.Agreements < 3 {
		t.Errorf("rules and AIIO agree on only %d/6 patterns", res.Agreements)
	}
}

func TestAblationPDP(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunAblationPDP(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.SHAPZeroAttributions != 0 {
		t.Errorf("SHAP attributed impact to %d zero counters", res.SHAPZeroAttributions)
	}
	if res.PDPZeroAttributions == 0 {
		t.Error("PDP was unexpectedly robust; the baseline contrast is gone")
	}
	if res.LinearRMSE <= res.GBDTRMSE {
		t.Errorf("linear surrogate RMSE %.4f not worse than lightgbm %.4f",
			res.LinearRMSE, res.GBDTRMSE)
	}
}

func TestAblationCrossPlatform(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunAblationCrossPlatform(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation < 1.3 {
		t.Errorf("cross-platform degradation %.2fx; expected clearly worse on the flash system", res.Degradation)
	}
}

func TestAblationTreeSHAP(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunAblationTreeSHAP(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDrift > 0.1 {
		t.Errorf("TreeSHAP and Kernel SHAP disagree by %.4f", res.MaxDrift)
	}
	if res.Speedup < 2 {
		t.Errorf("TreeSHAP speedup only %.1fx", res.Speedup)
	}
}

func TestExtensionTuningAdvisor(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunExtensionTuningAdvisor(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 4 {
		t.Fatalf("ran %d cases", len(res.Cases))
	}
	if res.CorrectTop < 3 {
		for _, c := range res.Cases {
			t.Logf("%s: expected %s, top %s (correct=%v)", c.Name, c.ExpectedAction, c.TopAction, c.Correct)
		}
		t.Errorf("advisor correct on only %d/4 cases", res.CorrectTop)
	}
}

func TestExtensionMPIIO(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunExtensionMPIIO(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.PosixRMSE <= 0 || res.ExtendedRMSE <= 0 {
		t.Fatalf("invalid RMSEs: %+v", res)
	}
	// MPI_File_sync is invisible to the 45 POSIX counters, so the extended
	// model must be clearly better on the sync-mixed workload family.
	if res.Improvement < 1.3 {
		t.Errorf("MPIIO counters improved RMSE only %.2fx (%.4f -> %.4f)",
			res.Improvement, res.PosixRMSE, res.ExtendedRMSE)
	}
}

func TestAblationUnseenApp(t *testing.T) {
	e := sharedEnv(t)
	res, err := RunAblationUnseenApp(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Distribution shift must be visible: the unseen family is harder than
	// the in-mixture eval set.
	if res.UnseenNoES <= res.InDistNoES {
		t.Errorf("unseen family not harder: %.4f vs %.4f", res.UnseenNoES, res.InDistNoES)
	}
	// Early stopping must actually stop early on the long budget...
	if res.EpochsES >= res.EpochsNoES {
		t.Errorf("early stopping never triggered: %d vs %d epochs", res.EpochsES, res.EpochsNoES)
	}
	// ...without a catastrophic accuracy loss on the unseen family.
	if res.UnseenES > res.UnseenNoES*1.6 {
		t.Errorf("early stopping cost too much on unseen jobs: %.4f vs %.4f",
			res.UnseenES, res.UnseenNoES)
	}
}

// factorNames renders the first n factors as "NAME (+/-value)" strings.
func factorNames(fs []core.Factor, n int) []string {
	if n > 0 && len(fs) > n {
		fs = fs[:n]
	}
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%s (%+.4f)", f.Counter, f.Contribution)
	}
	return out
}
