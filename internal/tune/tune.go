// Package tune implements the paper's third future-work direction
// (Section 5 and the limitations of Section 1): automatically mapping
// diagnosis results to performance-tuning techniques. The paper removed
// diagnosed bottlenecks by hand; this advisor closes the loop:
//
//  1. take AIIO's merged diagnosis of a job;
//  2. for each flagged bottleneck family, build the *counterfactual*
//     counter vector the corresponding tuning would produce (e.g. merging
//     small writes moves the size histogram up and shrinks the op count);
//  3. predict the counterfactual performance with the same performance
//     functions (accuracy-weighted, Eq. 8) and report the expected gain.
//
// The advisor therefore never invents numbers: every recommendation's
// predicted speedup comes from the trained models evaluated on the modified
// counters — the "change the inputs, the performance function changes its
// output" use the paper describes in Section 3.2.
package tune

import (
	"fmt"
	"math"
	"sort"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
	"github.com/hpc-repro/aiio/internal/linalg"
)

// Recommendation is one tuning action with its model-predicted effect.
type Recommendation struct {
	// Action is the short identifier ("increase-transfer-size", ...).
	Action string
	// Description explains the change in the application's terms.
	Description string
	// Counters are the diagnosis counters that motivated the action.
	Counters []darshan.CounterID
	// PredictedMiBps is the accuracy-weighted predicted performance after
	// the change; PredictedGain is its ratio to the current prediction.
	PredictedMiBps float64
	PredictedGain  float64
}

// Advisor turns diagnoses into ranked recommendations.
type Advisor struct {
	ens *core.Ensemble
}

// New creates an advisor over a trained ensemble.
func New(ens *core.Ensemble) *Advisor {
	return &Advisor{ens: ens}
}

// transform is one counterfactual rewrite of a job record.
type transform struct {
	action      string
	description string
	counters    []darshan.CounterID
	// applies reports whether the transform targets one of the diagnosed
	// bottleneck counters.
	applies func(neg map[darshan.CounterID]bool, rec *darshan.Record) bool
	// rewrite builds the counterfactual record.
	rewrite func(rec *darshan.Record) *darshan.Record
}

// Advise ranks the applicable tunings for a diagnosed job by predicted
// gain, best first. Only recommendations with predicted gain above minGain
// (e.g. 1.05) are returned.
func (a *Advisor) Advise(diag *core.Diagnosis, minGain float64) ([]Recommendation, error) {
	if diag == nil || diag.Record == nil {
		return nil, fmt.Errorf("tune: nil diagnosis")
	}
	neg := map[darshan.CounterID]bool{}
	for _, f := range diag.Bottlenecks() {
		neg[f.Counter] = true
	}

	// The baseline and every applicable counterfactual are predicted
	// together: recs[0] is the job, recs[k+1] is trs[k]'s rewrite.
	recs := []*darshan.Record{diag.Record}
	var trs []transform
	for _, tr := range catalog() {
		if !tr.applies(neg, diag.Record) {
			continue
		}
		cf := tr.rewrite(diag.Record)
		if err := cf.Validate(); err != nil {
			return nil, fmt.Errorf("tune: transform %s produced an invalid record: %w", tr.action, err)
		}
		recs = append(recs, cf)
		trs = append(trs, tr)
	}
	preds := a.predict(recs)
	baseline := preds[0]

	var out []Recommendation
	for k, tr := range trs {
		pred := preds[k+1]
		gain := 1.0
		if baseline > 0 {
			gain = pred / baseline
		}
		if gain < minGain {
			continue
		}
		out = append(out, Recommendation{
			Action:         tr.action,
			Description:    tr.description,
			Counters:       tr.counters,
			PredictedMiBps: pred,
			PredictedGain:  gain,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PredictedGain > out[j].PredictedGain })
	return out, nil
}

// predict is the accuracy-agnostic ensemble prediction in MiB/s of every
// record: the plain mean across models (no measured performance exists for
// a counterfactual, so Eq. 8 weights cannot be formed). Each model sees all
// records in one PredictBatch; per record the model terms are summed in
// model order, as a per-record Predict loop would.
func (a *Advisor) predict(recs []*darshan.Record) []float64 {
	rows := make([][]float64, len(recs))
	for i, rec := range recs {
		rows[i] = features.TransformRecord(rec)
	}
	x := linalg.FromRows(rows)
	sums := make([]float64, len(recs))
	for _, m := range a.ens.Models {
		for i, p := range m.PredictBatch(x) {
			sums[i] += p
		}
	}
	for i, s := range sums {
		sums[i] = features.Inverse(s / float64(len(a.ens.Models)))
	}
	return sums
}

// catalog is the built-in tuning catalogue; each entry mirrors one of the
// paper's manual optimizations.
func catalog() []transform {
	return []transform{
		{
			action:      "increase-transfer-size",
			description: "merge small writes into ~1 MiB transfers (the paper's Fig. 7 fix: larger -t, buffering, or collective I/O)",
			counters: []darshan.CounterID{
				darshan.PosixSizeWrite0_100, darshan.PosixSizeWrite100_1K,
				darshan.PosixSizeWrite1K_10K, darshan.PosixWrites,
			},
			applies: func(neg map[darshan.CounterID]bool, rec *darshan.Record) bool {
				diagnosed := neg[darshan.PosixSizeWrite0_100] || neg[darshan.PosixSizeWrite100_1K] ||
					neg[darshan.PosixSizeWrite1K_10K] || neg[darshan.PosixWrites] ||
					neg[darshan.PosixAccess1Count]
				f := smallWriteFraction(rec)
				// Diagnosed small-write impact, or an overwhelmingly
				// small-write workload regardless of which correlated
				// counter absorbed the attribution; the predicted-gain gate
				// does the final filtering.
				return (diagnosed && f > 0.5) || f > 0.9
			},
			rewrite: mergeSmallWrites,
		},
		{
			action:      "increase-read-size",
			description: "read in ~1 MiB requests instead of small ones (Fig. 8b)",
			counters: []darshan.CounterID{
				darshan.PosixSizeRead0_100, darshan.PosixSizeRead100_1K,
				darshan.PosixSizeRead1K_10K, darshan.PosixReads,
			},
			applies: func(neg map[darshan.CounterID]bool, rec *darshan.Record) bool {
				diagnosed := neg[darshan.PosixSizeRead0_100] || neg[darshan.PosixSizeRead100_1K] ||
					neg[darshan.PosixSizeRead1K_10K] || neg[darshan.PosixReads] ||
					neg[darshan.PosixAccess1Count]
				f := smallReadFraction(rec)
				return (diagnosed && f > 0.5) || f > 0.9
			},
			rewrite: mergeSmallReads,
		},
		{
			action:      "remove-redundant-seeks",
			description: "drop per-access lseek calls for sequential access (the paper's IOR fix, Fig. 8)",
			counters:    []darshan.CounterID{darshan.PosixSeeks},
			applies: func(neg map[darshan.CounterID]bool, rec *darshan.Record) bool {
				ops := rec.Counter(darshan.PosixReads) + rec.Counter(darshan.PosixWrites)
				return neg[darshan.PosixSeeks] && ops > 0 &&
					rec.Counter(darshan.PosixSeeks) > 0.5*ops
			},
			rewrite: func(rec *darshan.Record) *darshan.Record {
				cf := *rec
				cf.SetCounter(darshan.PosixSeeks, rec.Counter(darshan.NProcs))
				return &cf
			},
		},
		{
			action:      "sequentialize-access",
			description: "convert strided/random offsets into contiguous access (Figs. 9-12)",
			counters: []darshan.CounterID{
				darshan.PosixStride1Count, darshan.PosixStride2Count,
				darshan.PosixStride3Count, darshan.PosixStride4Count,
				darshan.PosixFileNotAligned,
			},
			applies: func(neg map[darshan.CounterID]bool, rec *darshan.Record) bool {
				strided := neg[darshan.PosixStride1Count] || neg[darshan.PosixStride2Count] ||
					neg[darshan.PosixStride3Count] || neg[darshan.PosixStride4Count] ||
					neg[darshan.PosixFileNotAligned]
				return strided && rec.Counter(darshan.PosixStride1Count) > 0
			},
			rewrite: sequentialize,
		},
		{
			action:      "merge-files",
			description: "merge many small input files into one (the paper's DASSA fix, Fig. 15)",
			counters:    []darshan.CounterID{darshan.PosixOpens, darshan.PosixStats},
			applies: func(neg map[darshan.CounterID]bool, rec *darshan.Record) bool {
				opens := rec.Counter(darshan.PosixOpens)
				nprocs := rec.Counter(darshan.NProcs)
				// Fire on diagnosed metadata impact, or on an extreme
				// structural signal (dozens of files per rank) even when
				// correlated counters absorbed the attribution.
				diagnosed := neg[darshan.PosixOpens] || neg[darshan.PosixStats]
				return (diagnosed && opens > 2*nprocs) || opens > 8*nprocs
			},
			rewrite: func(rec *darshan.Record) *darshan.Record {
				cf := *rec
				n := rec.Counter(darshan.NProcs)
				cf.SetCounter(darshan.PosixOpens, 2*n) // data file + aux per rank
				if cf.Counter(darshan.PosixStats) > n {
					cf.SetCounter(darshan.PosixStats, n)
				}
				return &cf
			},
		},
		{
			action:      "widen-striping",
			description: "stripe the file over more OSTs and use >= 4 MiB stripes (the paper's OpenPMD fix, Fig. 14)",
			counters:    []darshan.CounterID{darshan.LustreStripeSize, darshan.LustreStripeWidth},
			applies: func(neg map[darshan.CounterID]bool, rec *darshan.Record) bool {
				return (neg[darshan.LustreStripeSize] || neg[darshan.LustreStripeWidth]) &&
					rec.Counter(darshan.LustreStripeWidth) < 8
			},
			rewrite: func(rec *darshan.Record) *darshan.Record {
				cf := *rec
				cf.SetCounter(darshan.LustreStripeWidth, 8)
				if cf.Counter(darshan.LustreStripeSize) < 4*(1<<20) {
					cf.SetCounter(darshan.LustreStripeSize, 4*(1<<20))
				}
				return &cf
			},
		},
	}
}

func smallWriteFraction(rec *darshan.Record) float64 {
	w := rec.Counter(darshan.PosixWrites)
	if w == 0 {
		return 0
	}
	small := rec.Counter(darshan.PosixSizeWrite0_100) +
		rec.Counter(darshan.PosixSizeWrite100_1K) +
		rec.Counter(darshan.PosixSizeWrite1K_10K)
	return small / w
}

func smallReadFraction(rec *darshan.Record) float64 {
	r := rec.Counter(darshan.PosixReads)
	if r == 0 {
		return 0
	}
	small := rec.Counter(darshan.PosixSizeRead0_100) +
		rec.Counter(darshan.PosixSizeRead100_1K) +
		rec.Counter(darshan.PosixSizeRead1K_10K)
	return small / r
}

// mergeSmallWrites rewrites the counters as if the same bytes were written
// in ~1 MiB requests: the op count shrinks to ceil(bytes/1MiB) per rank
// pattern, the size histogram concentrates in the top bucket, and
// sequential/consecutive counts follow the new op count.
func mergeSmallWrites(rec *darshan.Record) *darshan.Record {
	cf := *rec
	bytes := rec.Counter(darshan.PosixBytesWritten)
	nprocs := math.Max(rec.Counter(darshan.NProcs), 1)
	newWrites := math.Max(math.Ceil(bytes/float64(1<<20)), nprocs)
	cf.SetCounter(darshan.PosixWrites, newWrites)
	cf.SetCounter(darshan.PosixSizeWrite0_100, 0)
	cf.SetCounter(darshan.PosixSizeWrite100_1K, 0)
	cf.SetCounter(darshan.PosixSizeWrite1K_10K, 0)
	cf.SetCounter(darshan.PosixSizeWrite10K_100K, 0)
	cf.SetCounter(darshan.PosixSizeWrite100K_1M, newWrites)
	seq := math.Max(newWrites-nprocs, 0)
	cf.SetCounter(darshan.PosixSeqWrites, seq)
	cf.SetCounter(darshan.PosixConsecWrites, seq)
	rewriteAccessCounters(&cf, newWrites+rec.Counter(darshan.PosixReads), 1<<20)
	clearStrides(&cf)
	cf.SetCounter(darshan.PosixFileNotAligned, 0)
	if cf.Counter(darshan.PosixSeeks) > nprocs {
		cf.SetCounter(darshan.PosixSeeks, nprocs)
	}
	return &cf
}

// mergeSmallReads is the read-side counterpart.
func mergeSmallReads(rec *darshan.Record) *darshan.Record {
	cf := *rec
	bytes := rec.Counter(darshan.PosixBytesRead)
	nprocs := math.Max(rec.Counter(darshan.NProcs), 1)
	newReads := math.Max(math.Ceil(bytes/float64(1<<20)), nprocs)
	cf.SetCounter(darshan.PosixReads, newReads)
	cf.SetCounter(darshan.PosixSizeRead0_100, 0)
	cf.SetCounter(darshan.PosixSizeRead100_1K, 0)
	cf.SetCounter(darshan.PosixSizeRead1K_10K, 0)
	cf.SetCounter(darshan.PosixSizeRead10K_100K, 0)
	cf.SetCounter(darshan.PosixSizeRead100K_1M, newReads)
	seq := math.Max(newReads-nprocs, 0)
	cf.SetCounter(darshan.PosixSeqReads, seq)
	cf.SetCounter(darshan.PosixConsecReads, seq)
	rewriteAccessCounters(&cf, newReads+rec.Counter(darshan.PosixWrites), 1<<20)
	clearStrides(&cf)
	cf.SetCounter(darshan.PosixFileNotAligned, 0)
	if cf.Counter(darshan.PosixSeeks) > nprocs {
		cf.SetCounter(darshan.PosixSeeks, nprocs)
	}
	return &cf
}

// sequentialize keeps sizes but removes the stride/alignment signature.
func sequentialize(rec *darshan.Record) *darshan.Record {
	cf := *rec
	clearStrides(&cf)
	cf.SetCounter(darshan.PosixFileNotAligned, 0)
	nprocs := math.Max(rec.Counter(darshan.NProcs), 1)
	writes := cf.Counter(darshan.PosixWrites)
	reads := cf.Counter(darshan.PosixReads)
	if writes > 0 {
		cf.SetCounter(darshan.PosixSeqWrites, math.Max(writes-nprocs, 0))
		cf.SetCounter(darshan.PosixConsecWrites, math.Max(writes-nprocs, 0))
	}
	if reads > 0 {
		cf.SetCounter(darshan.PosixSeqReads, math.Max(reads-nprocs, 0))
		cf.SetCounter(darshan.PosixConsecReads, math.Max(reads-nprocs, 0))
	}
	if cf.Counter(darshan.PosixSeeks) > nprocs {
		cf.SetCounter(darshan.PosixSeeks, nprocs)
	}
	return &cf
}

func clearStrides(rec *darshan.Record) {
	for c := darshan.PosixStride1Stride; c <= darshan.PosixStride4Stride; c++ {
		rec.SetCounter(c, 0)
	}
	for c := darshan.PosixStride1Count; c <= darshan.PosixStride4Count; c++ {
		rec.SetCounter(c, 0)
	}
}

// rewriteAccessCounters makes the top access size the new dominant one.
func rewriteAccessCounters(rec *darshan.Record, count float64, size float64) {
	rec.SetCounter(darshan.PosixAccess1Access, size)
	rec.SetCounter(darshan.PosixAccess1Count, count)
	for c := darshan.PosixAccess2Access; c <= darshan.PosixAccess4Access; c++ {
		rec.SetCounter(c, 0)
	}
	for c := darshan.PosixAccess2Count; c <= darshan.PosixAccess4Count; c++ {
		rec.SetCounter(c, 0)
	}
}
