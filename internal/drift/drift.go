// Package drift watches a serving model's world change. The paper's
// ensemble is trained once, but a long-lived telemetry sink keeps serving
// as its input distribution shifts — stale models degrade silently long
// before anyone notices. This package provides the detection half of the
// self-healing lifecycle (DESIGN.md §14):
//
//   - bounded-memory per-counter input-distribution sketches over ingested
//     jobs, compared by Population Stability Index (PSI) against a
//     reference snapshot frozen at the serving generation's training time;
//   - a rolling prediction-error tracker over labeled jobs (every ingested
//     record carries its measured PerfMiBps, so serving error is free);
//   - a canary gate (canary.go) that shadow-evaluates a freshly retrained
//     ensemble against the serving one on held-out jobs before promotion.
//
// Everything is fixed-size: a Reference is 45 counters × NumBins uint64
// bins, the live window is two such sets rotated in place, and the error
// tracker is one ring buffer. Monitoring a million-job stream costs the
// same memory as monitoring a hundred.
package drift

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/hpc-repro/aiio/internal/darshan"
	"github.com/hpc-repro/aiio/internal/features"
)

// NumBins is the fixed per-counter histogram width. Counters are compared
// in the model's own feature space — log10(x+1), Eq. 2 — where real
// Darshan counters live in roughly [0, 12): bin 0 holds exact zeros
// (sparsity is a first-class signal: most counters are zero for most
// jobs, and a sparsity shift is drift), bins 1..24 are half-decade slices
// of (0, 12), and bin 25 is the overflow.
const NumBins = 26

// bucket maps one raw counter value to its bin.
func bucket(v float64) int {
	t := features.Transform(features.Sanitize(v))
	if t <= 0 {
		return 0
	}
	b := 1 + int(t*2)
	if b >= NumBins {
		return NumBins - 1
	}
	return b
}

// Hist is one counter's fixed-width histogram.
type Hist [NumBins]uint64

// Reference is the distribution snapshot frozen at a generation's training
// time and persisted alongside it in the model store, so a restart re-arms
// the monitor with exactly the world the serving models were fitted to.
type Reference struct {
	// Jobs is how many records built the snapshot.
	Jobs int `json:"jobs"`
	// Counters holds one histogram per Darshan counter, schema order.
	Counters [darshan.NumCounters]Hist `json:"counters"`
	// BaselineRMSE is the candidate's held-out RMSE (transformed domain) at
	// training time — the error level the post-promotion watch compares
	// rolling serving error against.
	BaselineRMSE float64 `json:"baseline_rmse,omitempty"`
}

// BuildReference sketches recs into a snapshot.
func BuildReference(recs []*darshan.Record) *Reference {
	ref := &Reference{Jobs: len(recs)}
	for _, rec := range recs {
		for j, v := range rec.Counters {
			ref.Counters[j][bucket(v)]++
		}
	}
	return ref
}

// Marshal serializes the snapshot for the model store sidecar.
func (r *Reference) Marshal() ([]byte, error) { return json.Marshal(r) }

// ParseReference is Marshal's inverse.
func ParseReference(data []byte) (*Reference, error) {
	var r Reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("drift: parse reference: %w", err)
	}
	return &r, nil
}

// psi computes the Population Stability Index between a reference and a
// live histogram: Σ (p−q)·ln(p/q) over bins, with Laplace smoothing so an
// empty bin on either side contributes a finite surprise instead of ±Inf.
// The conventional reading: < 0.1 stable, 0.1–0.25 moderate shift, > 0.25
// the population has moved.
func psi(ref, live *Hist) float64 {
	var refN, liveN float64
	for b := 0; b < NumBins; b++ {
		refN += float64(ref[b])
		liveN += float64(live[b])
	}
	if refN == 0 || liveN == 0 {
		return 0
	}
	const eps = 0.5
	sum := 0.0
	for b := 0; b < NumBins; b++ {
		p := (float64(ref[b]) + eps) / (refN + eps*NumBins)
		q := (float64(live[b]) + eps) / (liveN + eps*NumBins)
		sum += (q - p) * math.Log(q/p)
	}
	return sum
}

// Config tunes a Monitor. Zero values take the documented defaults.
type Config struct {
	// PSIThreshold is the per-counter PSI at which the input distribution
	// counts as drifted (default 0.25; negative disables input tripping).
	PSIThreshold float64
	// MinSamples is how many live jobs the window must hold before PSI is
	// trusted (default 200) — a handful of odd jobs is noise, not drift.
	MinSamples int
	// Window is the live-window rotation size (default 2000): the monitor
	// keeps the current and previous buckets, so PSI always reflects the
	// most recent Window..2×Window jobs and old traffic ages out.
	Window int
	// ErrorRatio is the rolling-RMSE / baseline-RMSE ratio at which
	// prediction error counts as drifted (default 1.5; negative disables).
	ErrorRatio float64
	// MinErrors is how many labeled predictions the ring must hold before
	// the error ratio is trusted (default 50).
	MinErrors int
}

// errorWindow is the rolling prediction-error ring size.
const errorWindow = 256

func (c Config) withDefaults() Config {
	if c.PSIThreshold == 0 {
		c.PSIThreshold = 0.25
	}
	if c.MinSamples == 0 {
		c.MinSamples = 200
	}
	if c.Window == 0 {
		c.Window = 2000
	}
	if c.ErrorRatio == 0 {
		c.ErrorRatio = 1.5
	}
	if c.MinErrors == 0 {
		c.MinErrors = 50
	}
	return c
}

// Monitor is the streaming drift detector. All methods are safe for
// concurrent use; Observe and ObserveError are O(counters) and O(1) with
// no allocation, cheap enough for every ingested record.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	ref *Reference

	// Two-bucket rotating live window: cur fills to cfg.Window, then
	// becomes prev. PSI runs over prev+cur, so the comparison set always
	// covers the last Window..2×Window jobs in constant memory.
	cur, prev   [darshan.NumCounters]Hist
	curN, prevN int

	// Rolling squared-error ring over labeled predictions.
	errs  []float64
	errN  int // total ever observed (ring head = errN % len)
	armed bool
}

// Check refuses a configuration whose monitor could never self-arm: it
// freezes its first 2×MinSamples live jobs as the reference, but the live
// window rotates every Window jobs, so MinSamples must not exceed Window/2
// (both after defaults).
func (c Config) Check() error {
	if d := c.withDefaults(); 2*d.MinSamples > d.Window {
		return fmt.Errorf("drift: MinSamples %d exceeds Window/2 = %d: the live window rotates before it holds the 2×MinSamples jobs self-arming needs, so the monitor would never arm",
			d.MinSamples, d.Window/2)
	}
	return nil
}

// New returns a monitor with cfg (zero fields defaulted) and no reference
// armed yet.
func New(cfg Config) *Monitor {
	c := cfg.withDefaults()
	return &Monitor{cfg: c, errs: make([]float64, errorWindow)}
}

// SetReference arms (or re-arms) the monitor against a snapshot and resets
// the live window — after a promotion or rollback the world starts over
// relative to the newly serving generation. A nil ref disarms.
func (m *Monitor) SetReference(ref *Reference) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ref = ref
	m.armed = ref != nil
	m.resetWindowLocked()
}

func (m *Monitor) resetWindowLocked() {
	m.cur = [darshan.NumCounters]Hist{}
	m.prev = [darshan.NumCounters]Hist{}
	m.curN, m.prevN = 0, 0
}

// ResetErrors clears the rolling error ring (promotion and rollback do
// this so the watch judges only the newly serving generation's errors).
func (m *Monitor) ResetErrors() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.errN = 0
}

// Observe feeds one ingested record's counters into the live window.
func (m *Monitor) Observe(rec *darshan.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for j, v := range rec.Counters {
		m.cur[j][bucket(v)]++
	}
	m.curN++
	// Self-arm: with no persisted reference (legacy generation, first
	// boot), freeze the first 2×MinSamples jobs as the baseline so drift
	// relative to "what this deployment first saw" is still detectable
	// instead of the monitor staying blind forever. The window below
	// rotates at Window jobs, so this needs MinSamples ≤ Window/2 (Check).
	if selfArm := 2 * m.cfg.MinSamples; !m.armed && selfArm > 0 && m.curN >= selfArm {
		ref := &Reference{Jobs: m.curN}
		ref.Counters = m.cur
		m.ref = ref
		m.armed = true
		m.resetWindowLocked()
		return
	}
	if m.curN >= m.cfg.Window {
		m.prev = m.cur
		m.prevN = m.curN
		m.cur = [darshan.NumCounters]Hist{}
		m.curN = 0
	}
}

// ObserveError feeds one labeled job's prediction error (both values in
// the transformed log10(x+1) domain).
func (m *Monitor) ObserveError(predicted, actual float64) {
	d := predicted - actual
	if math.IsNaN(d) || math.IsInf(d, 0) {
		// A non-finite prediction is a model fault, not a drift sample;
		// the circuit breakers own that failure mode.
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.errs[m.errN%len(m.errs)] = d * d
	m.errN++
}

// RollingRMSE returns the root-mean-square of the error ring and how many
// labeled jobs it currently covers.
func (m *Monitor) RollingRMSE() (rmse float64, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rollingLocked()
}

func (m *Monitor) rollingLocked() (float64, int) {
	n := m.errN
	if n > len(m.errs) {
		n = len(m.errs)
	}
	if n == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, sq := range m.errs[:n] {
		sum += sq
	}
	return math.Sqrt(sum / float64(n)), n
}

// CounterDrift is one counter's PSI against the reference.
type CounterDrift struct {
	Counter string  `json:"counter"`
	PSI     float64 `json:"psi"`
}

// Status is a point-in-time drift report — the /api/v1/drift body and the
// healthz "drift" section.
type Status struct {
	// Armed is true once a reference snapshot is loaded (persisted with
	// the generation, or self-armed from early traffic).
	Armed bool `json:"armed"`
	// ReferenceJobs / WindowJobs size the two populations under comparison.
	ReferenceJobs int `json:"reference_jobs"`
	WindowJobs    int `json:"window_jobs"`
	// MaxPSI is the worst per-counter PSI; Threshold is the trip level.
	MaxPSI    float64 `json:"max_psi"`
	Threshold float64 `json:"threshold"`
	// Drifted lists every counter over the threshold, worst first — the
	// "which counters drifted" provenance that flows into advisories.
	Drifted []CounterDrift `json:"drifted,omitempty"`
	// Top lists the worst counters regardless of threshold (at most 5).
	Top []CounterDrift `json:"top,omitempty"`
	// Rolling prediction-error state.
	RollingRMSE  float64 `json:"rolling_rmse"`
	BaselineRMSE float64 `json:"baseline_rmse"`
	ErrorRatio   float64 `json:"error_ratio"`
	ErrorObs     int     `json:"error_obs"`
	// Tripped is true when either detector is over its threshold with
	// enough samples; TrippedBy names the detector.
	Tripped   bool   `json:"tripped"`
	TrippedBy string `json:"tripped_by,omitempty"`
}

// Snapshot computes the current drift status. O(counters × bins); cheap
// enough for every healthz poll.
func (m *Monitor) Snapshot() *Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &Status{
		Armed:      m.armed,
		WindowJobs: m.curN + m.prevN,
		Threshold:  m.cfg.PSIThreshold,
	}
	if m.ref != nil {
		st.ReferenceJobs = m.ref.Jobs
		st.BaselineRMSE = m.ref.BaselineRMSE
	}
	all := make([]CounterDrift, 0, darshan.NumCounters)
	if m.armed && st.WindowJobs > 0 {
		var live Hist
		for j := 0; j < int(darshan.NumCounters); j++ {
			for b := 0; b < NumBins; b++ {
				live[b] = m.cur[j][b] + m.prev[j][b]
			}
			p := psi(&m.ref.Counters[j], &live)
			all = append(all, CounterDrift{Counter: darshan.CounterID(j).String(), PSI: p})
			if p > st.MaxPSI {
				st.MaxPSI = p
			}
		}
		sort.Slice(all, func(i, k int) bool { return all[i].PSI > all[k].PSI })
		for _, cd := range all {
			if m.cfg.PSIThreshold > 0 && cd.PSI >= m.cfg.PSIThreshold {
				st.Drifted = append(st.Drifted, cd)
			}
		}
		top := len(all)
		if top > 5 {
			top = 5
		}
		st.Top = append(st.Top, all[:top]...)
	}
	rmse, n := m.rollingLocked()
	st.RollingRMSE, st.ErrorObs = rmse, n
	if st.BaselineRMSE > 0 && rmse > 0 {
		st.ErrorRatio = rmse / st.BaselineRMSE
	}
	if m.cfg.PSIThreshold > 0 && len(st.Drifted) > 0 && st.WindowJobs >= m.cfg.MinSamples {
		st.Tripped = true
		st.TrippedBy = "input-distribution"
	} else if m.cfg.ErrorRatio > 0 && st.BaselineRMSE > 0 &&
		n >= m.cfg.MinErrors && st.ErrorRatio >= m.cfg.ErrorRatio {
		st.Tripped = true
		st.TrippedBy = "prediction-error"
	}
	return st
}

// Tripped reports whether a drift threshold is over its trip level with
// enough samples to trust, along with the full status for provenance.
func (m *Monitor) Tripped() (bool, *Status) {
	st := m.Snapshot()
	return st.Tripped, st
}
