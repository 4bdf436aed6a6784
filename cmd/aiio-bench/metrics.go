package main

// metricDef is one row of BENCHMARK.json: the name a metric is printed
// under, its unit and which direction is better. bound (end-to-end metrics
// only) is the share of the baseline median by which the metric may worsen
// before `aiio-bench compare` calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the service sees. Every workload reports
// every one of them (with -trace 0). TestBenchmarkJSONMatchesTables keeps
// BENCHMARK.json in step with this table.
//
// The timing bounds sit at the contract's ceiling, 0.25, because the box
// they were sized on has slow spells that outlast a 30 s run: over ten runs
// of unchanged code the interquartile range reached 22 % of the median on
// warm_repeat (README.md, "Reference values"), and a bound must not sit
// below the same-code spread. eval_rmse repeats exactly, so its bound is
// tight.
//
// Two metrics the issue names are absent on purpose: fail_rate is always 0
// on a healthy run (the driver's contract forbids such a metric; failures
// are carried by the result line's attempted/failed/correct instead), and
// attribution_err sits at floating-point noise (~1e-15), so a relative
// bound on it is meaningless — it is reported per layer and gated
// absolutely in the correctness check.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "eval_rmse", Unit: "log10", Better: lower, Bound: 0.02},
}

// perLayer lists the replay's measurements of single layers (with
// -trace 1). README.md says which end-to-end metric on which workload each
// one should move.
var perLayer = []metricDef{
	{Name: "darshan.parse_us", Unit: "us", Better: lower},
	{Name: "darshan.parse_batch_us_per_job", Unit: "us", Better: lower},
	{Name: "shap.tree_us", Unit: "us", Better: lower},
	{Name: "shap.kernel_us.mlp", Unit: "us", Better: lower},
	{Name: "shap.kernel_us.tabnet", Unit: "us", Better: lower},
	{Name: "shap.kernel_rows_per_explain", Unit: "count", Better: lower},
	{Name: "shap.kernel_predict_share", Unit: "ratio", Better: lower},
	{Name: "gbdt.predict_us_per_row", Unit: "us", Better: lower},
	{Name: "mlp.predict_us_per_row", Unit: "us", Better: lower},
	{Name: "tabnet.predict_us_per_row", Unit: "us", Better: lower},
	{Name: "core.diagnose_ms", Unit: "ms", Better: lower},
	{Name: "core.diagnose_self_us", Unit: "us", Better: lower},
	{Name: "core.diagnose_allocs", Unit: "count", Better: lower},
	{Name: "core.diagnose_batch_ms_per_job", Unit: "ms", Better: lower},
	{Name: "core.attribution_err", Unit: "log10", Better: lower},
	{Name: "tune.advise_us", Unit: "us", Better: lower},
	{Name: "webservice.hit_us", Unit: "us", Better: lower},
	{Name: "webservice.hit_self_us", Unit: "us", Better: lower},
	{Name: "webservice.hit_allocs", Unit: "count", Better: lower},
	{Name: "webservice.miss_ms", Unit: "ms", Better: lower},
	{Name: "webservice.coalesce_wait_ms", Unit: "ms", Better: lower},
	{Name: "webservice.http_overhead_us", Unit: "us", Better: lower},
	{Name: "webservice.ingest_us_per_job", Unit: "us", Better: lower},
	{Name: "webservice.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "webservice.coalesce_fused_per_batch", Unit: "ratio", Better: higher},
	{Name: "webservice.response_bytes", Unit: "bytes", Better: lower},
	{Name: "admission.shed", Unit: "count", Better: lower},
	{Name: "admission.acquire_ns", Unit: "ns", Better: lower},
	{Name: "joblog.append_us", Unit: "us", Better: lower},
	{Name: "joblog.sync_ms", Unit: "ms", Better: lower},
	{Name: "joblog.scan_us_per_job", Unit: "us", Better: lower},
	{Name: "joblog.bytes_per_job", Unit: "bytes", Better: lower},
	{Name: "core.train_ms", Unit: "ms", Better: lower},
	{Name: "gbdt.fit_ms", Unit: "ms", Better: lower},
	{Name: "mlp.fit_ms", Unit: "ms", Better: lower},
	{Name: "tabnet.fit_ms", Unit: "ms", Better: lower},
	{Name: "core.retrain_cycle_ms", Unit: "ms", Better: lower},
	{Name: "core.store_save_ms", Unit: "ms", Better: lower},
	{Name: "core.store_load_ms", Unit: "ms", Better: lower},
	{Name: "replica.key_ns", Unit: "ns", Better: lower},
	{Name: "replica.route_us", Unit: "us", Better: lower},
	{Name: "trace.span_cost_ns", Unit: "ns", Better: lower},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps the values a run measured onto a table, so a metric the
// run forgot fails loudly instead of vanishing from the result line.
func metricSet(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}
