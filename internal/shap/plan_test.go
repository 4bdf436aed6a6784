package shap

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"sync"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// coalition returns row i of the plan as the coalition it stands for.
func (p *plan) coalition(i int) []uint64 {
	mask := append([]uint64(nil), p.support[i*p.words:(i+1)*p.words]...)
	if p.weight[i] < 0 {
		p.complement(mask, mask)
	}
	return mask
}

// TestPlanEnumerationRule: a size level is enumerated only while its
// kernel-weight share of the unspent budget covers it. At 15 features and
// 4096 rows that stops after sizes 1–3 (1150 rows) and leaves 2946 rows for
// sizes 4–7; taking every level that merely fits would take size 4 too and
// leave 216.
func TestPlanEnumerationRule(t *testing.T) {
	p := buildPlan(15, 4096, 1, 1e-9)
	if p.rows() != 4096 {
		t.Fatalf("plan holds %d coalitions, want the whole budget of 4096", p.rows())
	}
	bySize := make([]int, 16)
	for i := 0; i < p.rows(); i++ {
		bySize[bits.OnesCount64(p.coalition(i)[0])]++
	}
	for s := 1; s <= 3; s++ {
		if want := int(binom(15, s)); bySize[s] != want || bySize[15-s] != want {
			t.Errorf("size %d: %d coalitions and %d complements, want all %d of each", s, bySize[s], bySize[15-s], want)
		}
	}
	if full := int(binom(15, 4)); bySize[4] >= full {
		t.Errorf("size 4 was enumerated (%d of %d): its weight share of the budget does not cover it", bySize[4], full)
	}
	for s := 4; s <= 7; s++ {
		if bySize[s] == 0 || bySize[s] != bySize[15-s] {
			t.Errorf("size %d: %d drawn coalitions against %d complements, want equal and non-zero", s, bySize[s], bySize[15-s])
		}
	}
}

// TestPlanMergesDuplicateDraws: at 13 features the auto budget draws 1320
// tail rows from 7436 possible coalitions, so repeats are certain. A repeat
// must add to its row's weight, not take a row: the rows are distinct, the
// budget is still spent in full, some tail row carries more than one draw,
// and the weights still add up to the whole kernel.
func TestPlanMergesDuplicateDraws(t *testing.T) {
	const m, budget = 13, 2*13 + 2048
	p := buildPlan(m, budget, 1, 1e-9)
	if p.rows() != budget {
		t.Fatalf("plan holds %d coalitions, want %d", p.rows(), budget)
	}
	seen := make(map[uint64]bool, budget)
	total, lightest, heaviest := 0.0, math.Inf(1), 0.0
	for i := 0; i < p.rows(); i++ {
		c := p.coalition(i)[0]
		if seen[c] {
			t.Fatalf("coalition %013b appears twice", c)
		}
		seen[c] = true
		w := math.Abs(p.weight[i])
		total += w
		if s := bits.OnesCount64(c); s >= 4 && s <= m-4 { // the random tail
			lightest, heaviest = math.Min(lightest, w), math.Max(heaviest, w)
		}
	}
	if heaviest < 1.5*lightest {
		t.Errorf("tail weights span %v..%v: no row carries a merged repeat", lightest, heaviest)
	}
	if want := totalKernelWeight(m); math.Abs(total-want) > 1e-9 {
		t.Errorf("weights sum to %v, want the kernel's %v", total, want)
	}
}

// TestPlanRepeatable: the plan is a function of its key alone.
func TestPlanRepeatable(t *testing.T) {
	a, b := buildPlan(20, 2088, 7, 1e-9), buildPlan(20, 2088, 7, 1e-9)
	if len(a.support) != len(b.support) || len(a.weight) != len(b.weight) {
		t.Fatal("two builds of one key differ in size")
	}
	for i := range a.support {
		if a.support[i] != b.support[i] {
			t.Fatalf("support word %d differs between builds", i)
		}
	}
	for i := range a.weight {
		if a.weight[i] != b.weight[i] {
			t.Fatalf("weight %d differs between builds", i)
		}
	}
	for i := range a.chol.Data {
		if a.chol.Data[i] != b.chol.Data[i] {
			t.Fatalf("Cholesky entry %d differs between builds", i)
		}
	}
	if c := buildPlan(20, 2088, 8, 1e-9); len(c.support) == len(a.support) {
		same := true
		for i := range a.support {
			same = same && a.support[i] == c.support[i]
		}
		if same {
			t.Error("a different seed drew the same coalitions")
		}
	}
}

// TestPlanSolveMatchesWeightedRidge: the plan path — ZᵀWy from support bits,
// two triangular solves against the cached factor — gives what the dense
// path gives: the design matrix written out row by row and handed to
// linalg.WeightedRidge.
func TestPlanSolveMatchesWeightedRidge(t *testing.T) {
	for _, m := range []int{13, 20, 33, 45} {
		f := interactionF(m)
		x := make([]float64, m)
		for j := range x {
			x[j] = 0.4 + 0.03*float64(j)
		}
		cfg := DefaultConfig()
		got := New(f, nil, cfg).Explain(x)

		p := planFor(m, 2*m+2048, cfg.Seed, cfg.Ridge)
		n := p.rows()
		inputs := linalg.NewMatrix(n, m)
		z := linalg.NewMatrix(n, m-1)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			c := p.coalition(i)[0]
			last := float64(c >> (m - 1) & 1)
			for b := 0; b < m; b++ {
				on := float64(c >> b & 1)
				inputs.Set(i, b, on*x[b])
				if b < m-1 {
					z.Set(i, b, on-last)
				}
			}
			w[i] = math.Abs(p.weight[i])
		}
		y := f(inputs)
		for i := range y {
			if p.weight[i] < 0 {
				y[i] -= got.FX
			} else {
				y[i] -= got.Base
			}
		}
		beta, err := linalg.WeightedRidge(z, y, w, cfg.Ridge, false)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for b, v := range beta {
			sum += v
			if math.Abs(got.Phi[b]-v) > 1e-9 {
				t.Errorf("m=%d: phi[%d] = %v on the plan path, %v through WeightedRidge", m, b, got.Phi[b], v)
			}
		}
		if last := got.FX - got.Base - sum; math.Abs(got.Phi[m-1]-last) > 1e-9 {
			t.Errorf("m=%d: eliminated feature gets %v on the plan path, %v through WeightedRidge", m, got.Phi[m-1], last)
		}
	}
}

// TestPlanSharedAcrossModelsAndGoroutines: explainers of different models
// (mlp and tabnet in a diagnosis) and concurrent goroutines asking for one
// key all get the one plan, built once.
func TestPlanSharedAcrossModelsAndGoroutines(t *testing.T) {
	const m = 19
	cfg := DefaultConfig()
	cfg.Seed = 4242 // a key no other test has built
	x := make([]float64, m)
	for j := range x {
		x[j] = 1 + float64(j)
	}
	var wg sync.WaitGroup
	plans := make([]*plan, 8)
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := interactionF(m)
			if g%2 == 1 {
				f = linearF(1, x)
			}
			New(f, nil, cfg).Explain(x)
			plans[g] = planFor(m, 2*m+2048, cfg.Seed, cfg.Ridge)
		}(g)
	}
	wg.Wait()
	for g, p := range plans {
		if p != plans[0] {
			t.Errorf("goroutine %d got its own plan", g)
		}
	}
}

// TestPlanTableBounded: the table never holds more than maxPlans plans or
// maxPlanWords words; the least recently used go first, and a plan too large
// for the table is built without entering it.
func TestPlanTableBounded(t *testing.T) {
	check := func() {
		t.Helper()
		planTable.Lock()
		defer planTable.Unlock()
		words := 0
		for k := range planTable.entries {
			words += k.words()
		}
		if len(planTable.entries) > maxPlans || words > maxPlanWords || words != planTable.words {
			t.Fatalf("table holds %d plans and %d words (accounted %d), bounds are %d and %d",
				len(planTable.entries), words, planTable.words, maxPlans, maxPlanWords)
		}
	}
	first := planFor(13, 64, 1000, 1e-9)
	for seed := int64(1001); seed < 1000+maxPlans; seed++ {
		planFor(13, 64, seed, 1e-9)
	}
	check()
	if planFor(13, 64, 1000, 1e-9) != first {
		t.Fatal("a plan was evicted before the table was full")
	}
	// Seeds 1000 and 1001 have now been touched again, so one more plan
	// evicts seed 1002.
	second := planFor(13, 64, 1001, 1e-9)
	planFor(13, 64, 2000, 1e-9)
	check()
	if planFor(13, 64, 1000, 1e-9) != first || planFor(13, 64, 1001, 1e-9) != second {
		t.Error("a recently used plan was evicted")
	}
	planTable.Lock()
	_, kept := planTable.entries[planKey{m: 13, budget: 64, seed: 1002, ridge: math.Float64bits(1e-9)}]
	planTable.Unlock()
	if kept {
		t.Error("the least recently used plan survived an insert into a full table")
	}

	// Large plans are bounded by size, not count.
	for seed := int64(0); seed < 6; seed++ {
		planFor(40, 1<<16, seed, 1e-9)
	}
	check()
	planTable.Lock()
	before := len(planTable.entries)
	planTable.Unlock()
	if p := planFor(14, maxPlanWords, 1, 1e-9); p.rows() != 1<<14-2 {
		t.Errorf("an oversized budget at 14 features gave %d coalitions, want all %d", p.rows(), 1<<14-2)
	}
	planTable.Lock()
	after := len(planTable.entries)
	planTable.Unlock()
	if after != before {
		t.Error("an oversized plan entered the table")
	}
}

// TestUnfactorizablePlanIsAnError: when the normal matrix has no Cholesky
// factor the explanation fails — it used to succeed with f(x) − f(bg) spread
// evenly over the active features. A NaN ridge is the one configuration that
// gets past New's defaulting and poisons the matrix.
func TestUnfactorizablePlanIsAnError(t *testing.T) {
	m := 16
	x := make([]float64, m)
	for j := range x {
		x[j] = float64(j + 1)
	}
	cfg := DefaultConfig()
	cfg.Ridge = math.NaN()
	_, err := New(interactionF(m), nil, cfg).Attribute(context.Background(), x)
	if !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("Attribute returned %v, want linalg.ErrSingular", err)
	}
	// The exact enumerator never solves anything and is unaffected.
	cfg.MaxExact = m
	if _, err := New(interactionF(m), nil, cfg).Attribute(context.Background(), x); err != nil {
		t.Fatalf("exact enumeration failed under a NaN ridge: %v", err)
	}
}
