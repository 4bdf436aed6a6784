package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// `aiio-bench compare A B` applies each end-to-end metric's bound to two
// sets of runs (files written with -out: one report per line), workload by
// workload. A is the baseline, B the candidate.

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares one metric on one workload.
//
//   - ok: B's median is no worse than A's by more than the bound, and the
//     run-to-run spread of both sets fits inside the bound (or every run of
//     B reads at least as well as every run of A).
//   - regressed: B's median is worse by more than the bound, and either
//     the spread fits inside the bound or every run of B reads worse than
//     every run of A.
//   - unresolved: the spread is wider than the bound and the two sets'
//     ranges overlap, so the medians settle nothing either way.
func judge(d metricDef, a, b []float64) (v verdict, change, spread float64) {
	// Fold direction away: in `cost` terms bigger is always worse.
	sign := 1.0
	if d.Better == higher {
		sign = -1
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = sign * (mb - ma) / math.Abs(ma)
	}
	spread = max(relRange(a), relRange(b))
	loA, hiA := minMax(a, sign)
	loB, hiB := minMax(b, sign)
	switch {
	case hiB <= loA: // every candidate run at least as good as every baseline run
		v = verdictOK
	case change > d.Bound && loB > hiA: // every candidate run worse
		v = verdictRegressed
	case spread > d.Bound:
		v = verdictUnresolved
	case change > d.Bound:
		v = verdictRegressed
	default:
		v = verdictOK
	}
	return v, change, spread
}

// relRange is (max − min) / |median|.
func relRange(v []float64) float64 {
	lo, hi := minMax(v, 1)
	if m := median(v); m != 0 {
		return (hi - lo) / math.Abs(m)
	}
	return 0
}

// minMax returns the smallest and largest of sign·v.
func minMax(v []float64, sign float64) (lo, hi float64) {
	lo, hi = sign*v[0], sign*v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, sign*x), max(hi, sign*x)
	}
	return lo, hi
}

// readReports decodes a stream of report objects and groups the end-to-end
// values by workload and metric.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	dec := json.NewDecoder(f)
	for {
		var rep report
		if err := dec.Decode(&rep); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Trace {
			continue
		}
		if !rep.Correct {
			return nil, fmt.Errorf("%s: run of %s (seed %d) failed its correctness gate; its numbers do not count",
				path, rep.Workload, rep.Seed)
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, mv := range rep.EndToEnd {
			out[rep.Workload][name] = append(out[rep.Workload][name], mv.Value)
		}
	}
}

// compareMain prints one row per workload × metric and returns the exit
// status: 1 when any metric regressed, 2 on bad input.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: aiio-bench compare BASELINE.jsonl CANDIDATE.jsonl")
		return 2
	}
	a, err := readReports(args[0])
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no end-to-end runs", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "aiio-bench compare:", err)
		return 2
	}
	b, err := readReports(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "aiio-bench compare:", err)
		return 2
	}
	workloads := make([]string, 0, len(a))
	for w := range a {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	status := 0
	fmt.Fprintf(stdout, "%-15s %-15s %5s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "runs", "baseline", "candidate", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w][d.Name], b[w][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stderr, "aiio-bench compare: %s %s: %d baseline and %d candidate runs\n", w, d.Name, len(va), len(vb))
				status = 2
				continue
			}
			v, change, spread := judge(d, va, vb)
			if v == verdictRegressed && status == 0 {
				status = 1
			}
			fmt.Fprintf(stdout, "%-15s %-15s %2d/%-2d %12.6g %12.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w, d.Name, len(va), len(vb), median(va), median(vb), 100*change, 100*spread, 100*d.Bound, v)
		}
	}
	return status
}
