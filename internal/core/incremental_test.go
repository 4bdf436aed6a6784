package core

import (
	"context"
	"errors"
	"testing"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/joblog"
	"github.com/hpc-repro/aiio/internal/logdb"
)

// fastIncOpts trains a single fast GBDT so each retrain cycle stays cheap.
func fastIncOpts() IncrementalOptions {
	return IncrementalOptions{
		MiniBatch: 8,
		Window:    40,
		MinNew:    5,
		Train:     TrainOptions{Models: []string{NameXGBoost}, Fast: true, Seed: 1},
	}
}

// fillLog appends jobs [lo, hi) from the synthetic generator.
func fillLog(t testing.TB, jl *joblog.Store, lo, hi int) {
	t.Helper()
	cfg := logdb.DefaultGenConfig()
	cfg.Jobs = hi
	i := 0
	logdb.GenerateStream(cfg, func(rec *darshan.Record) bool {
		if i >= lo {
			if _, err := jl.Append(rec); err != nil {
				t.Fatalf("append job %d: %v", i, err)
			}
		}
		i++
		return true
	})
	if err := jl.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRunIncrementalCommitsGenerationAndAdvancesCursor(t *testing.T) {
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := OpenStore(t.TempDir())
	fillLog(t, jl, 0, 60)

	rep, err := RunIncremental(context.Background(), jl, store, fastIncOpts())
	if err != nil {
		t.Fatalf("first incremental run: %v", err)
	}
	if rep.NewRecords != 60 || rep.Generation == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if jl.Pending() != 0 {
		t.Fatalf("backlog not drained: %d pending", jl.Pending())
	}
	// The committed generation must load through the store's normal path.
	ens, _, err := store.Load()
	if err != nil {
		t.Fatalf("load committed generation: %v", err)
	}
	if err := ValidateEnsemble(ens); err != nil {
		t.Fatalf("committed ensemble fails validation: %v", err)
	}

	// No new jobs → ErrNoNewJobs, cursor untouched.
	if _, err := RunIncremental(context.Background(), jl, store, fastIncOpts()); !errors.Is(err, ErrNoNewJobs) {
		t.Fatalf("empty backlog: err = %v, want ErrNoNewJobs", err)
	}

	// A second batch produces a second generation and the window blends in
	// history without exceeding its bound.
	fillLog(t, jl, 60, 80)
	rep2, err := RunIncremental(context.Background(), jl, store, fastIncOpts())
	if err != nil {
		t.Fatalf("second incremental run: %v", err)
	}
	if rep2.Generation <= rep.Generation {
		t.Fatalf("generation did not advance: %d then %d", rep.Generation, rep2.Generation)
	}
	if rep2.NewRecords != 20 {
		t.Fatalf("second run drained %d new records, want 20", rep2.NewRecords)
	}
	if rep2.WindowRecords != 40 {
		t.Fatalf("window = %d records, want the 40-record bound", rep2.WindowRecords)
	}
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) < 2 {
		t.Fatalf("store holds %d generations, want ≥ 2 (rollback history)", len(gens))
	}
}

func TestRunIncrementalFailedTrainLeavesCursor(t *testing.T) {
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := OpenStore(t.TempDir())
	fillLog(t, jl, 0, 8) // below TrainEnsemble's 10-record floor

	opts := fastIncOpts()
	if _, err := RunIncremental(context.Background(), jl, store, opts); err == nil {
		t.Fatal("training on 8 records should fail")
	}
	if jl.Pending() != 8 {
		t.Fatalf("failed run moved the cursor: %d pending, want 8", jl.Pending())
	}
	// Refill past the floor: the same backlog re-delivers and succeeds.
	fillLog(t, jl, 8, 20)
	rep, err := RunIncremental(context.Background(), jl, store, opts)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if rep.NewRecords != 20 {
		t.Fatalf("retry drained %d records, want the full 20", rep.NewRecords)
	}
}

func TestRunIncrementalCancelledContext(t *testing.T) {
	jl, err := joblog.Open(t.TempDir(), joblog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := OpenStore(t.TempDir())
	fillLog(t, jl, 0, 30)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunIncremental(ctx, jl, store, fastIncOpts()); err == nil {
		t.Fatal("cancelled context should abort the run")
	}
	if jl.Pending() != 30 {
		t.Fatalf("cancelled run moved the cursor: %d pending, want 30", jl.Pending())
	}
}
