package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/durable"
	"github.com/hpc-repro/aiio/internal/faults"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/logdb"
	"github.com/hpc-repro/aiio/internal/report"
	"github.com/hpc-repro/aiio/internal/webservice"
)

// crashHook is the one AIIO_CRASH hook (see durable.HookFromEnv), parsed
// once and installed on every store this process opens: the CI
// restart-recovery drills kill the real binary at a named durable step of
// the job log or the model registry.
var crashHook = sync.OnceValues(durable.HookFromEnv)

// openStore opens the model registry at dir with the crash hook installed.
func openStore(dir string) (*core.Store, error) {
	hook, err := crashHook()
	if err != nil {
		return nil, err
	}
	st := core.OpenStore(dir)
	st.SetHook(hook)
	return st, nil
}

// openJobLog opens the durable job store and surfaces what recovery had to
// repair, so a restart after a crash is never silent about it.
func openJobLog(dir string) (*joblog.Store, error) {
	hook, err := crashHook()
	if err != nil {
		return nil, err
	}
	jl, err := joblog.Open(dir, joblog.Options{})
	if err != nil {
		return nil, err
	}
	jl.SetHook(hook)
	rep := jl.Recovery()
	if rep.TornBytes > 0 || rep.Quarantined > 0 || rep.ResealedSegments > 0 || rep.RemovedDebris > 0 {
		report.Warn(os.Stderr, "%s: recovery truncated %d torn bytes, quarantined %d records, resealed %d segments, removed %d debris files",
			dir, rep.TornBytes, rep.Quarantined, rep.ResealedSegments, rep.RemovedDebris)
	}
	return jl, nil
}

// cmdIngest appends jobs to the durable log — from a Darshan dataset file,
// from the synthetic generator, or shipped to a running server's ingest
// endpoint instead of a local directory.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dir := fs.String("joblog-dir", "joblog", "durable job log directory")
	db := fs.String("db", "", "Darshan dataset file to ingest (mutually exclusive with -gen)")
	gen := fs.Int("gen", 0, "generate this many synthetic jobs instead of reading -db")
	seed := fs.Int64("seed", 1, "seed for -gen")
	server := fs.String("server", "", "ship to a running aiio-server (base URL) instead of writing -joblog-dir")
	batch := fs.Int("batch", 256, "records per durability barrier (local) or per request (-server)")
	shift := fs.Float64("shift-scale", 1, "scale every counter and the performance tag by this integer factor before ingest (distribution-shift injection for drift drills)")
	shiftID := fs.Int64("shift-id-offset", 1_000_000, "JobID offset applied with -shift-scale so shifted jobs are new jobs, not dedup retries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shift != 1 && (*shift < 1 || *shift != float64(int64(*shift))) {
		return fmt.Errorf("ingest: -shift-scale must be a positive integer (scaling stays exact and shifted records still validate)")
	}
	if (*db == "") == (*gen == 0) {
		return fmt.Errorf("ingest: exactly one of -db or -gen is required")
	}
	if *batch < 1 {
		*batch = 1
	}

	// Source: stream records one at a time so memory stays flat. A shift
	// factor rewrites each record on the way through — the distribution
	// moves, the linear invariants survive (see faults.ShiftRecord).
	var recs []*darshan.Record
	stream := func(yield func(*darshan.Record) bool) error {
		if *shift != 1 {
			inner := yield
			yield = func(rec *darshan.Record) bool {
				s := faults.ShiftRecord(rec, *shift)
				s.JobID += *shiftID
				return inner(s)
			}
		}
		if *gen > 0 {
			logdb.GenerateStream(logdb.GenConfig{Jobs: *gen, Seed: *seed}, yield)
			return nil
		}
		ds, err := loadDB(*db, true)
		if err != nil {
			return err
		}
		for _, rec := range ds.Records {
			if !yield(rec) {
				break
			}
		}
		return nil
	}

	if *server != "" {
		client := webservice.NewClient(*server)
		var total webservice.IngestResponse
		flush := func() error {
			if len(recs) == 0 {
				return nil
			}
			resp, err := client.Ingest(recs)
			if err != nil {
				return err
			}
			total.Accepted += resp.Accepted
			total.Duplicates += resp.Duplicates
			total.Quarantined += resp.Quarantined
			total.ParseRejected += resp.ParseRejected
			total.Pending = resp.Pending
			recs = recs[:0]
			return nil
		}
		var streamErr error
		if err := stream(func(rec *darshan.Record) bool {
			recs = append(recs, rec)
			if len(recs) >= *batch {
				if streamErr = flush(); streamErr != nil {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		if streamErr != nil {
			return streamErr
		}
		if err := flush(); err != nil {
			return err
		}
		fmt.Printf("ingested via %s: %d accepted, %d duplicates, %d quarantined, %d rejected (%d pending retrain)\n",
			*server, total.Accepted, total.Duplicates, total.Quarantined, total.ParseRejected, total.Pending)
		return nil
	}

	jl, err := openJobLog(*dir)
	if err != nil {
		return err
	}
	defer jl.Close()
	var accepted, duplicates, quarantined, staged int
	var appendErr error
	if err := stream(func(rec *darshan.Record) bool {
		if verr := rec.Validate(); verr != nil {
			if appendErr = jl.QuarantineRecord(rec, verr.Error()); appendErr != nil {
				return false
			}
			quarantined++
			return true
		}
		res, err := jl.Append(rec)
		if err != nil {
			appendErr = err
			return false
		}
		if res.Duplicate {
			duplicates++
			return true
		}
		accepted++
		staged++
		if staged >= *batch {
			if appendErr = jl.Sync(); appendErr != nil {
				return false
			}
			staged = 0
		}
		return true
	}); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	if err := jl.Sync(); err != nil {
		return err
	}
	fmt.Printf("ingested into %s: %d accepted, %d duplicates, %d quarantined (%d pending retrain)\n",
		*dir, accepted, duplicates, quarantined, jl.Pending())
	return nil
}

// cmdRetrain drains the joblog backlog into a fresh ensemble committed as a
// new model-store generation (the rollback history stays intact).
func cmdRetrain(args []string) error {
	fs := flag.NewFlagSet("retrain", flag.ExitOnError)
	dir := fs.String("joblog-dir", "joblog", "durable job log directory")
	modelsDir := fs.String("models", "models", "model registry directory")
	miniBatch := fs.Int("minibatch", 512, "records per drain mini-batch")
	window := fs.Int("window", 20000, "historical records blended into the training set")
	minNew := fs.Int("min-new", 1, "minimum backlog size worth retraining on")
	fast := fs.Bool("fast", false, "reduced training budgets")
	seed := fs.Int64("seed", 1, "random seed")
	models := fs.String("train-models", "", "comma-separated subset of models to train (default all)")
	warm := fs.Bool("warm-start", true, "seed each model from the previous generation on a reduced budget (falls back to cold per model on schema/drift)")
	warmBudget := fs.Float64("warm-budget", core.DefaultWarmBudgetFrac, "fraction of the cold budget warm-started models train for")
	if err := fs.Parse(args); err != nil {
		return err
	}
	jl, err := openJobLog(*dir)
	if err != nil {
		return err
	}
	defer jl.Close()
	store, err := openStore(*modelsDir)
	if err != nil {
		return err
	}
	topts := core.DefaultTrainOptions()
	topts.Fast = *fast
	topts.Seed = *seed
	topts.WarmStart = *warm
	topts.WarmBudgetFrac = *warmBudget
	if *models != "" {
		topts.Models = strings.Split(*models, ",")
	}
	rep, err := core.RunIncremental(context.Background(), jl, store, core.IncrementalOptions{
		MiniBatch: *miniBatch,
		Window:    *window,
		MinNew:    *minNew,
		Train:     topts,
	})
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, m := range rep.Train.Models {
		fit, kept := "cold", "-"
		if m.WarmStart {
			fit, kept = "warm", "no"
			if m.SeedKept {
				kept = "yes"
			}
		} else if m.WarmFallback != "" {
			fit = "cold (" + m.WarmFallback + ")"
		}
		rows = append(rows, []string{m.Name, fmt.Sprintf("%.4f", m.PredictionRMSE), fit, fmt.Sprint(m.Epochs), kept})
	}
	report.Table(os.Stdout, []string{"Model", "Eval RMSE", "Fit", "Epochs", "Seed kept"}, rows)
	fmt.Printf("retrained on %d new + %d window jobs -> %s generation %d (cursor %d)\n",
		rep.NewRecords, rep.WindowRecords, *modelsDir, rep.Generation, rep.MaxSeq)
	return nil
}

// cmdJobLog prints store statistics or runs a compaction.
func cmdJobLog(args []string) error {
	fs := flag.NewFlagSet("joblog", flag.ExitOnError)
	dir := fs.String("dir", "joblog", "durable job log directory")
	compact := fs.Bool("compact", false, "compact: drop duplicate frames, rewrite segments, verify checksums")
	if err := fs.Parse(args); err != nil {
		return err
	}
	jl, err := openJobLog(*dir)
	if err != nil {
		return err
	}
	defer jl.Close()
	if *compact {
		st, err := jl.Compact()
		if err != nil {
			return err
		}
		fmt.Printf("compacted %s: %d -> %d segments, %d -> %d frames (%d duplicates dropped), %d -> %d bytes\n",
			*dir, st.SegmentsIn, st.SegmentsOut, st.FramesIn, st.FramesOut, st.DuplicatesDropped,
			st.BytesIn, st.BytesOut)
	}
	st := jl.Stats()
	report.KV(os.Stdout, "records", "%d", st.Records)
	report.KV(os.Stdout, "pending retrain", "%d", st.Pending)
	report.KV(os.Stdout, "sealed segments", "%d", st.SealedSegments)
	report.KV(os.Stdout, "total bytes", "%d", st.TotalBytes)
	report.KV(os.Stdout, "duplicate frames", "%d", st.DuplicateFrames)
	report.KV(os.Stdout, "quarantined", "%d", st.Quarantined)
	report.KV(os.Stdout, "compactions", "%d", st.Compactions)
	if st.LastCompactionUnix > 0 {
		report.KV(os.Stdout, "last compaction", "%s", time.Unix(st.LastCompactionUnix, 0).UTC().Format(time.RFC3339))
	}
	return nil
}
