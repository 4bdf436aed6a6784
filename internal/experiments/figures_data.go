package experiments

import (
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/gauge"
	"github.com/hpc-repro/aiio/internal/report"
	"github.com/hpc-repro/aiio/internal/webservice"
)

// Figure1Result captures the Gauge (group-level) versus AIIO (job-level)
// comparison of the paper's Fig. 1.
type Figure1Result struct {
	ClusterSize int
	// GroupAbsErr and MaxMemberAbsErr show the Fig. 1a spread.
	GroupAbsErr     float64
	MaxMemberAbsErr float64
	// GroupTop and MemberTop are the dominant Gauge features of Fig. 1b/1c
	// (POSIX_*_PERC names).
	GroupTop  string
	MemberTop string
	// GaugeZeroAttributions counts zero-valued counters that Gauge's
	// cluster-mean background assigned impact to (Fig. 1d, non-robust).
	GaugeZeroAttributions int
	// AIIOZeroAttributions is the same count under AIIO's diagnosis; the
	// robustness rule forces it to zero.
	AIIOZeroAttributions int
}

// RunFigure1 reproduces the group-vs-job comparison.
func RunFigure1(e *Env, w io.Writer) (*Figure1Result, error) {
	_, frame, err := e.Data()
	if err != nil {
		return nil, err
	}
	cfg := gauge.DefaultConfig()
	if e.Fast {
		cfg.MinClusterSize = 25
		cfg.ImportanceSample = 12
		cfg.SHAP.MaxExact = 8
		cfg.SHAP.NSamples = 512
	}
	g, err := gauge.Analyze(frame, cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{
		ClusterSize:           len(g.Members),
		GroupAbsErr:           g.GroupAbsErr,
		GroupTop:              gauge.DerivedName(gauge.TopCounter(g.GroupImportance)),
		MemberTop:             gauge.DerivedName(gauge.TopCounter(g.MemberImportance)),
		GaugeZeroAttributions: len(g.MemberZeroFeatures),
	}
	for _, errv := range g.MemberAbsErr {
		if errv > res.MaxMemberAbsErr {
			res.MaxMemberAbsErr = errv
		}
	}

	// AIIO's diagnosis of the same member, for the robustness contrast.
	memberRec := frame.Records[g.Members[g.MemberIndex]]
	diag, err := e.diagnose(memberRec)
	if err != nil {
		return nil, err
	}
	for j, c := range diag.Average.Contributions {
		if memberRec.Counters[j] == 0 && c != 0 {
			res.AIIOZeroAttributions++
		}
	}

	fprintHeader(w, "Figure 1: group-level (Gauge) vs job-level (AIIO) diagnosis")
	report.KV(w, "cluster size", "%d", res.ClusterSize)
	report.KV(w, "group avg |error|", "%.4f", res.GroupAbsErr)
	report.KV(w, "max member |error|", "%.4f (%.1fx the average)",
		res.MaxMemberAbsErr, res.MaxMemberAbsErr/maxF(res.GroupAbsErr, 1e-12))
	report.KV(w, "group top feature", "%s", res.GroupTop)
	report.KV(w, "member top feature", "%s", res.MemberTop)
	report.KV(w, "Gauge zero-feature attributions", "%d (non-robust)", res.GaugeZeroAttributions)
	report.KV(w, "AIIO zero-counter attributions", "%d (robust)", res.AIIOZeroAttributions)
	report.Summary(w, "Fig. 1b: group-level SHAP summary (Gauge feature space)",
		gauge.DerivedNames(), g.SampleImportances, 9, 56)
	return res, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Figure4Result captures the performance distribution before and after the
// log10(x+1) transform.
type Figure4Result struct {
	RawMin, RawMax                 float64
	TransformedMin, TransformedMax float64
}

// RunFigure4 renders the two histograms of Fig. 4.
func RunFigure4(e *Env, w io.Writer) (*Figure4Result, error) {
	ds, frame, err := e.Data()
	if err != nil {
		return nil, err
	}
	raw := make([]float64, ds.Len())
	for i, rec := range ds.Records {
		raw[i] = rec.PerfMiBps
	}
	res := &Figure4Result{RawMin: raw[0], RawMax: raw[0],
		TransformedMin: frame.Y[0], TransformedMax: frame.Y[0]}
	for i := range raw {
		if raw[i] < res.RawMin {
			res.RawMin = raw[i]
		}
		if raw[i] > res.RawMax {
			res.RawMax = raw[i]
		}
		if frame.Y[i] < res.TransformedMin {
			res.TransformedMin = frame.Y[i]
		}
		if frame.Y[i] > res.TransformedMax {
			res.TransformedMax = frame.Y[i]
		}
	}
	fprintHeader(w, "Figure 4: performance before/after log10(x+1)")
	report.Histogram(w, "raw performance (MiB/s)", raw, 12, 40)
	report.Histogram(w, "log10(x+1) performance", frame.Y, 12, 40)
	report.KV(w, "raw range", "(%.3g, %.3g)", res.RawMin, res.RawMax)
	report.KV(w, "transformed range", "(%.3g, %.3g) (paper: (0.3, 6.8))",
		res.TransformedMin, res.TransformedMax)
	return res, nil
}

// RunFigure5 renders the performance-vs-transfer-size scatter of Fig. 5 and
// returns the correlation coefficient of the transformed quantities.
func RunFigure5(e *Env, w io.Writer) (float64, error) {
	ds, frame, err := e.Data()
	if err != nil {
		return 0, err
	}
	xs := make([]float64, ds.Len())
	ys := make([]float64, ds.Len())
	for i, rec := range ds.Records {
		xs[i] = features.Transform(rec.TotalBytes())
		ys[i] = frame.Y[i]
	}
	fprintHeader(w, "Figure 5: performance vs total data transfer size")
	report.Scatter(w, "x = log10(total bytes + 1), y = log10(perf + 1)", xs, ys, 16, 64)
	corr := pearson(xs, ys)
	report.KV(w, "pearson correlation", "%.3f (neither linear nor independent)", corr)
	return corr, nil
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Figure16Result is the XGBoost-variant training loss curve.
type Figure16Result struct {
	TrainLoss []float64
	EvalLoss  []float64
}

// RunFigure16 renders the Fig. 16 loss plot.
func RunFigure16(e *Env, w io.Writer) (*Figure16Result, error) {
	ens, _, err := e.Ensemble()
	if err != nil {
		return nil, err
	}
	g, ok := core.TreeModel(ens.Model(core.NameXGBoost))
	if !ok {
		return nil, fmt.Errorf("experiments: xgboost model exposes no loss curves")
	}
	eval := g.EvalLoss
	res := &Figure16Result{TrainLoss: g.TrainLoss, EvalLoss: eval}
	fprintHeader(w, "Figure 16: XGBoost training loss (RMSE) by iteration")
	report.LineChart(w, "eval RMSE", eval, 12, 64)
	report.KV(w, "iterations", "%d", len(eval))
	report.KV(w, "first/last eval RMSE", "%.4f -> %.4f", eval[0], eval[len(eval)-1])
	return res, nil
}

// Figure17Result is the web-service round trip.
type Figure17Result struct {
	Models      int
	Latency     time.Duration
	Bottlenecks int
	Robust      bool
}

// RunFigure17 starts the AIIO web service on a loopback listener, uploads a
// job log and returns the diagnosis — the Fig. 17 architecture end to end.
func RunFigure17(e *Env, w io.Writer) (*Figure17Result, error) {
	ens, _, err := e.Ensemble()
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(webservice.NewServer(ens, e.DiagOpts).Handler())
	defer srv.Close()
	client := webservice.NewClient(srv.URL)

	rec, _ := e.runIOR(e.scalePattern(pattern(1).Config), "ior", 1, 5)
	start := time.Now()
	resp, err := client.Diagnose(rec)
	if err != nil {
		return nil, err
	}
	res := &Figure17Result{
		Models:      len(resp.Models),
		Latency:     time.Since(start),
		Bottlenecks: len(resp.Bottlenecks),
		Robust:      resp.Robust,
	}
	fprintHeader(w, "Figure 17: AIIO web service round trip")
	report.KV(w, "models loaded", "%d", res.Models)
	report.KV(w, "diagnosis latency", "%s", res.Latency.Round(time.Millisecond))
	report.KV(w, "bottlenecks returned", "%d", res.Bottlenecks)
	report.KV(w, "robust", "%v", res.Robust)
	return res, nil
}
