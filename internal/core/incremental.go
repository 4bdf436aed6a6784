package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
)

// Incremental retraining: drain the joblog's retrain backlog in
// mini-batches, blend it with a bounded sample of already-incorporated
// history, train a fresh ensemble, and commit it as a new store generation.
// The joblog cursor advances only after the generation is durably saved, so
// a crash anywhere in the pipeline re-delivers the same backlog on the next
// run — the model store's own generation history provides rollback.

// ErrNoNewJobs reports that the backlog is below the MinNew threshold.
var ErrNoNewJobs = errors.New("core: not enough new jobs to retrain")

// JobBacklog is the slice of the durable job log that incremental retraining
// consumes; *joblog.Store satisfies it. Keeping it an interface here keeps
// core free of a joblog dependency (joblog's tests lean on faults, which
// leans on core — a concrete type would close that loop into a cycle).
type JobBacklog interface {
	// Pending counts records past the retrain cursor.
	Pending() int
	// Cursor returns the highest sequence already incorporated.
	Cursor() uint64
	// Scan yields every live record in sequence order.
	Scan(yield func(seq uint64, rec *darshan.Record) bool) error
	// DrainPending yields the backlog in batches with the max sequence seen.
	DrainPending(batch int, fn func(recs []*darshan.Record, maxSeq uint64) error) error
	// AdvanceCursor durably marks everything up to seq as incorporated.
	AdvanceCursor(seq uint64) error
}

// IncrementalOptions configures RunIncremental.
type IncrementalOptions struct {
	// MiniBatch is the DrainPending batch size (default 512). It bounds the
	// per-callback allocation, not the total: every pending job is drained.
	MiniBatch int
	// Window bounds how many already-incorporated records are blended into
	// the training set (default 20000, reservoir-sampled). The bound keeps
	// retraining memory flat as the log grows.
	Window int
	// MinNew is the minimum backlog size before retraining is worthwhile
	// (default 1).
	MinNew int
	// Holdout, when > 0 with a Gate wired in, is the canary holdout budget:
	// up to half is reservoir-sampled from incorporated history (records
	// with seq ≡ 0 mod 3, which are excluded from the training window so
	// the split is disjoint by construction) and up to half is diverted
	// from the fresh backlog before training. The candidate never trains
	// on a holdout record, so a retrain that memorized poisoned labels has
	// nowhere to hide from the gate, while the history half keeps a
	// candidate from passing by simply overfitting the newest slice.
	Holdout int
	// Gate, when non-nil, shadow-evaluates the candidate ensemble against
	// the held-out slice after validation and before anything durable
	// happens. A nil error admits the candidate and the verdict is
	// recorded in the generation manifest; an error blocks the commit — no
	// generation is written, and the run returns a *CanaryBlockedError.
	Gate func(candidate *Ensemble, holdout []*darshan.Record) (*CanaryRecord, error)
	// Reference, when non-nil, serializes a drift-reference snapshot of
	// the training distribution (typically drift.BuildReference) that is
	// committed alongside the generation, so the drift monitor can re-arm
	// against exactly this model's world after a restart. The admitting
	// verdict (nil when no Gate ran) is passed through for its baseline
	// error.
	Reference func(training []*darshan.Record, verdict *CanaryRecord) []byte
	// Train configures the ensemble fit itself.
	Train TrainOptions
}

// CanaryBlockedError reports that the canary gate refused a retrained
// candidate: the serving generation stays, nothing was committed, and the
// backlog that trained the candidate is parked behind the cursor (so a
// single-flight auto-retrain loop does not re-train the same rejected
// batch forever; the records stay in the log, reachable through the
// history window of later cycles).
type CanaryBlockedError struct {
	// Verdict carries the losing numbers for healthz and the operator.
	Verdict *CanaryRecord
	// Err is the gate's explanation.
	Err error
}

func (e *CanaryBlockedError) Error() string {
	return fmt.Sprintf("core: canary gate blocked promotion: %v", e.Err)
}

func (e *CanaryBlockedError) Unwrap() error { return e.Err }

// holdoutEligible marks the deterministic third of history seqs that may
// only serve as canary holdout, never training window.
func holdoutEligible(seq uint64) bool { return seq%3 == 0 }

// IncrementalReport summarizes one incremental retraining run.
type IncrementalReport struct {
	// NewRecords is the number of backlog records drained past the cursor.
	NewRecords int
	// WindowRecords is the number of historical records blended in.
	WindowRecords int
	// HoldoutRecords is the number of records held out for the canary gate
	// (never trained on).
	HoldoutRecords int
	// Generation is the committed model-store generation.
	Generation uint64
	// MaxSeq is the cursor position after the run.
	MaxSeq uint64
	// Train is the underlying training report.
	Train *TrainReport
	// Canary is the gate verdict that admitted this generation (nil when
	// no Gate was configured).
	Canary *CanaryRecord
}

// ValidateEnsemble probes every model (ProbeModel) and rejects an ensemble
// whose prediction panics or is non-finite. It is the same gate the web
// service applies to uploaded models before a hot swap; incremental
// retraining applies it before committing a generation so a degenerate fit
// can never become the recovery point.
func ValidateEnsemble(e *Ensemble) error {
	if e == nil || len(e.Models) == 0 {
		return fmt.Errorf("core: empty ensemble")
	}
	for _, m := range e.Models {
		if err := ProbeModel(m); err != nil {
			return fmt.Errorf("core: model %s failed validation: %w", m.Name(), err)
		}
	}
	return nil
}

// ProbeModel rejects a model whose feature dimension does not match the
// counter schema before it can reach a diagnosis: a wrongly-dimensioned
// model panics (slice bounds) or returns a non-finite value when
// evaluated, so it is evaluated here on a probe vector, inside a recover,
// instead of inside a live request.
func ProbeModel(m Model) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe prediction panicked (feature dimension mismatch with the %d-counter schema?): %v",
				darshan.NumCounters, r)
		}
	}()
	probe := make([]float64, darshan.NumCounters)
	for j := range probe {
		// Non-zero, varied values so dimension-dependent code paths
		// (standardization, tree splits on any counter) are exercised.
		probe[j] = float64(j%7) + 0.5
	}
	v := m.Predict(probe)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("probe prediction is %v", v)
	}
	return nil
}

// RunIncremental performs one retraining cycle against jl and store.
//
// Ordering is the durability argument: train → validate → Save (a complete
// new generation, committed through the store's atomic CURRENT flip) →
// AdvanceCursor. A crash before Save leaves the cursor untouched and the
// backlog intact; a crash between Save and AdvanceCursor re-trains the same
// jobs into one more generation — wasteful, never wrong, because ingest
// dedup means the log holds each job once regardless.
func RunIncremental(ctx context.Context, jl JobBacklog, store *Store, opts IncrementalOptions) (*IncrementalReport, error) {
	if opts.MiniBatch <= 0 {
		opts.MiniBatch = 512
	}
	if opts.Window <= 0 {
		opts.Window = 20000
	}
	if opts.MinNew <= 0 {
		opts.MinNew = 1
	}
	if jl.Pending() < opts.MinNew {
		return nil, ErrNoNewJobs
	}

	// Warm starting against the store: seed each model from the previous
	// generation so the reduced budget only has to absorb the new window.
	// A store with no loadable generation (first run, or every generation
	// corrupt) degrades to a cold start rather than failing the cycle.
	if opts.Train.WarmStart && opts.Train.warmFrom == nil && store != nil {
		if prev, _, err := store.Load(); err == nil {
			opts.Train.warmFrom = prev
		}
	}

	cursor := jl.Cursor()
	gated := opts.Gate != nil && opts.Holdout > 0
	histCap := (opts.Holdout + 1) / 2

	// Reservoir-sample the incorporated history into the window. The rng is
	// seeded from the training seed so a re-run after a crash draws the
	// same window and trains the same model. With a canary gate configured,
	// the holdout-eligible third of history feeds its own reservoir and
	// stays out of the window: the split is disjoint by construction, so
	// the candidate cannot train on a record it is judged against.
	rng := rand.New(rand.NewSource(opts.Train.Seed ^ int64(cursor)))
	window := make([]*darshan.Record, 0, opts.Window)
	var histHold []*darshan.Record
	seen, heldSeen := 0, 0
	if err := jl.Scan(func(seq uint64, rec *darshan.Record) bool {
		if seq > cursor {
			return true
		}
		if gated && holdoutEligible(seq) {
			heldSeen++
			if len(histHold) < histCap {
				histHold = append(histHold, rec)
			} else if k := rng.Intn(heldSeen); k < histCap {
				histHold[k] = rec
			}
			return true
		}
		seen++
		if len(window) < opts.Window {
			window = append(window, rec)
		} else if k := rng.Intn(seen); k < opts.Window {
			window[k] = rec
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("core: scan history: %w", err)
	}

	// Drain the backlog in mini-batches.
	var fresh []*darshan.Record
	var maxSeq uint64
	if err := jl.DrainPending(opts.MiniBatch, func(recs []*darshan.Record, hi uint64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		fresh = append(fresh, recs...)
		if hi > maxSeq {
			maxSeq = hi
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: drain backlog: %w", err)
	}
	if len(fresh) < opts.MinNew {
		return nil, ErrNoNewJobs
	}

	// Divert the fresh half of the canary holdout before training sees the
	// backlog: an evenly-strided slice of the newest jobs, as long as
	// enough fresh records remain to make the retrain worthwhile.
	holdout := append([]*darshan.Record(nil), histHold...)
	if gated {
		freshCap := opts.Holdout - len(histHold)
		if freshCap > len(fresh)/2 {
			freshCap = len(fresh) / 2
		}
		if rest := len(fresh) - freshCap; rest < opts.MinNew {
			freshCap = len(fresh) - opts.MinNew
		}
		if freshCap > 0 {
			stride := len(fresh) / freshCap
			kept := fresh[:0]
			for i, rec := range fresh {
				if len(holdout)-len(histHold) < freshCap && i%stride == stride-1 {
					holdout = append(holdout, rec)
				} else {
					kept = append(kept, rec)
				}
			}
			fresh = kept
		}
	}

	ds := &darshan.Dataset{Records: make([]*darshan.Record, 0, len(window)+len(fresh))}
	ds.Records = append(ds.Records, window...)
	ds.Records = append(ds.Records, fresh...)

	ens, report, err := TrainEnsembleContext(ctx, features.Build(ds), opts.Train)
	if err != nil {
		return nil, fmt.Errorf("core: incremental train: %w", err)
	}
	if err := ValidateEnsemble(ens); err != nil {
		return nil, err
	}
	// The canary gate: shadow-evaluate the candidate on the held-out slice
	// before anything durable happens. A blocked candidate is never
	// written — the serving generation cannot be displaced by a retrain
	// that made things worse — and the backlog is parked behind the cursor
	// so the single-flight trigger does not loop on the same batch.
	var verdict *CanaryRecord
	if opts.Gate != nil {
		var gerr error
		verdict, gerr = opts.Gate(ens, holdout)
		if gerr != nil {
			if aerr := jl.AdvanceCursor(maxSeq); aerr != nil {
				return nil, fmt.Errorf("core: canary blocked (%v) and cursor advance failed: %w", gerr, aerr)
			}
			return nil, &CanaryBlockedError{Verdict: verdict, Err: gerr}
		}
	}
	var extra *GenerationExtra
	if verdict != nil || opts.Reference != nil {
		extra = &GenerationExtra{Canary: verdict}
		if opts.Reference != nil {
			extra.Reference = opts.Reference(ds.Records, verdict)
		}
	}
	gen, err := store.SaveDetailed(ens, extra)
	if err != nil {
		return nil, fmt.Errorf("core: commit generation: %w", err)
	}
	// Only now is the backlog truly incorporated.
	if err := jl.AdvanceCursor(maxSeq); err != nil {
		return nil, fmt.Errorf("core: advance cursor (generation %d is committed; the next run re-trains the same jobs): %w", gen, err)
	}
	return &IncrementalReport{
		NewRecords:     len(fresh),
		WindowRecords:  len(window),
		HoldoutRecords: len(holdout),
		Generation:     gen,
		MaxSeq:         maxSeq,
		Train:          report,
		Canary:         verdict,
	}, nil
}
