// Command aiio-bench is the repository's benchmark: one command that trains
// generation 1 in process, spawns the real aiio-server at production-default
// flags, drives it over loopback HTTP with one of four fixed-work,
// closed-loop workloads, checks the answers, and prints every metric by
// name with its unit.
//
//	go run ./cmd/aiio-bench -workload cold_distinct [-seed N] [-seconds 12] [-trace 0|1] [-out runs.jsonl]
//	go run ./cmd/aiio-bench compare A.jsonl B.jsonl
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// replays a sample of the workload's inputs through each layer's public
// functions after the end-to-end phase, reports the per-layer metrics and
// writes the spans to <workdir>/spans-<workload>.json. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md beside this file for the method and the definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	cfg := config{size: fullSize}
	var trace int
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "cold_distinct, warm_repeat, batch_offline or ingest_retrain")
	flag.Int64Var(&cfg.seed, "seed", 1, "traffic seed: which jobs are sent, in which order")
	flag.IntVar(&cfg.seconds, "seconds", 12, "sizes the measured phase: the round count is fixed from it (about this long on a 2-core box)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer replay with spans")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/aiio-bench", "where per-run temp files and spans go")
	flag.StringVar(&cfg.serverBin, "server-bin", "", "prebuilt aiio-server (default: go build ./cmd/aiio-server)")
	flag.StringVar(&out, "out", "", "append the full report to this file, for `aiio-bench compare`")
	flag.Parse()
	if cfg.workload == "" || flag.NArg() > 0 || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	// core logs training notes (constant feature columns) through the
	// standard logger; they are not the benchmark's output.
	log.SetOutput(io.Discard)

	// On SIGINT/SIGTERM the context ends, every phase returns, and run's
	// deferred clean-up kills the server's process group and removes the
	// temp directory before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	rep, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aiio-bench:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := appendReport(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "aiio-bench:", err)
			os.Exit(1)
		}
	}
	printReport(os.Stdout, rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func appendReport(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport writes the human-readable account and, last, the result line.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", rep.Workload, rep.Seed, rep.Trace)
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "phase %-28s clients %d  requests_sent %d  requests_ok %d  requests_failed %d\n",
			p.Name, p.Clients, p.Sent, p.OK, p.Failed)
	}
	defs, metrics := endToEnd, rep.EndToEnd
	if rep.Trace {
		defs, metrics = perLayer, rep.PerLayer
		fmt.Fprintln(w, "per-layer metrics (replay; child spans are re-executions, so self times are estimates):")
	} else {
		fmt.Fprintln(w, "end-to-end metrics:")
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	names := make([]string, 0, len(rep.Counts))
	for name := range rep.Counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "exact counts (same seed, same counts):")
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %14d\n", name, rep.Counts[name])
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	env, _ := json.Marshal(rep.Env)
	fmt.Fprintf(w, "env %s\n", env)
	line, _ := json.Marshal(resultLine{
		Correct: rep.Correct, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}
