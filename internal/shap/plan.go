package shap

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// plan is the half of a sampled Kernel SHAP explanation that depends only on
// the active-feature count m, the coalition budget, the seed and the ridge —
// never on the input or the model: which coalitions to evaluate, their kernel
// weights, and the Cholesky factor of the normal matrix ZᵀWZ + ridge·I of the
// weighted least-squares problem. It is built once (see planFor), is
// immutable afterwards, and is shared by every explainer, goroutine and
// request that asks for the same key.
//
// The efficiency constraint Σφ = f(x) − f(bg) eliminates the last active
// feature, so coalition S contributes the design row z_b = [b∈S] − [m−1∈S]
// over the first m−1 features. Such a row is ±1 on a support set and 0
// elsewhere, and the plan stores coalitions in exactly that form:
//
//	m−1 ∉ S:  support = S,                 sign +, target f(S) − f(bg)
//	m−1 ∈ S:  support = {0..m−1} \ S,      sign −, target f(S) − f(x)
//
// Row i's support is support[i*words:(i+1)*words] and weight[i] is its
// kernel weight times the sign. A coalition and its complement share one
// support with opposite signs.
type plan struct {
	m, words int
	support  []uint64
	weight   []float64
	// chol is the lower-triangular Cholesky factor of ZᵀWZ + ridge·I.
	chol *linalg.Matrix
	// err is linalg.ErrSingular when the normal matrix has no factorization;
	// every explanation through this plan fails with it.
	err error
}

// rows returns the number of coalitions.
func (p *plan) rows() int { return len(p.weight) }

// kernelSizeWeight is the Shapley kernel's total weight on coalitions of
// size s out of m, up to the common factor the WLS solve does not see.
func kernelSizeWeight(m, s int) float64 {
	return float64(m-1) / (float64(s) * float64(m-s))
}

// totalKernelWeight is the kernel's weight on all coalition sizes 1..m−1.
func totalKernelWeight(m int) float64 {
	tot := 0.0
	for s := 1; s < m; s++ {
		tot += kernelSizeWeight(m, s)
	}
	return tot
}

// buildPlan chooses the coalitions the way shap.KernelExplainer does. Size
// levels are taken in pairs (s, m−s), smallest first. A level is enumerated
// completely only while its kernel-weight share of the budget still unspent
// covers it — (budget−used)·w_s/Σw_remaining ≥ |level| — so a level that
// merely fits cannot starve the ones after it. The rest of the budget is
// drawn at random from the remaining levels, size ∝ kernel weight, each draw
// adding the subset and its complement; a coalition drawn again adds to the
// weight of its row instead of taking a new one, and does not spend budget.
// The draw is a deterministic function of seed.
func buildPlan(m, budget int, seed int64, ridge float64) *plan {
	p := &plan{m: m, words: (m + 63) / 64}
	maxPair := m / 2 // levels (1, m−1), (2, m−2), ...
	remaining := totalKernelWeight(m)

	mask := make([]uint64, p.words)
	comp := make([]uint64, p.words)
	left := budget
	firstRandom := 1
	for ; firstRandom <= maxPair; firstRandom++ {
		s := firstRandom
		// The level is size s and, unless it is its own mirror, size m−s.
		w, level := kernelSizeWeight(m, s), binom(m, s)
		if s != m-s {
			w, level = 2*w, 2*level
		}
		if float64(left)*w/remaining < level*(1-1e-8) {
			break
		}
		forEachSubset(m, s, func(idx []int) {
			setBits(mask, idx)
			p.add(mask, w/level)
			if s != m-s {
				p.complement(comp, mask)
				p.add(comp, w/level)
			}
		})
		left -= int(level)
		remaining -= w
	}
	fixed := p.rows()

	if firstRandom <= maxPair && left > 0 {
		// Draw sizes ∝ the unpaired kernel weight: a paired draw lands two
		// coalitions, so level s and its mirror still receive 2·w_s together.
		cum := make([]float64, 0, maxPair-firstRandom+1) // cum[i] covers sizes firstRandom..firstRandom+i
		tot := 0.0
		for s := firstRandom; s <= maxPair; s++ {
			tot += kernelSizeWeight(m, s)
			cum = append(cum, tot)
		}
		rng := rand.New(&splitmix64{s: uint64(seed)})
		perm := make([]int, m)
		for i := range perm {
			perm[i] = i
		}
		seen := make(map[string]int, left) // coalition → row
		key := make([]byte, 8*p.words)
		// draw lands one coalition: a repeat adds a count to its row, a new
		// one takes a row while budget remains.
		draw := func(mask []uint64) {
			for i, v := range mask {
				binary.LittleEndian.PutUint64(key[8*i:], v)
			}
			if row, ok := seen[string(key)]; ok {
				p.weight[row] += math.Copysign(1, p.weight[row])
				return
			}
			if left > 0 {
				seen[string(key)] = p.rows()
				p.add(mask, 1)
				left--
			}
		}
		// When few coalitions remain to be found, most draws are repeats;
		// like shap, give up after four times the random budget.
		for tries := 4 * left; left > 0 && tries > 0; tries-- {
			r := rng.Float64() * tot
			s := firstRandom
			for s < maxPair && r > cum[s-firstRandom] {
				s++
			}
			// Partial Fisher–Yates: the first s slots are a uniform s-subset.
			for i := 0; i < s; i++ {
				j := i + rng.Intn(m-i)
				perm[i], perm[j] = perm[j], perm[i]
			}
			setBits(mask, perm[:s])
			draw(mask)
			if s != m-s {
				p.complement(comp, mask)
				draw(comp)
			}
		}
		// The random rows carry counts; scale them to the kernel weight the
		// enumerated levels left over.
		counts := 0.0
		for _, c := range p.weight[fixed:] {
			counts += math.Abs(c)
		}
		for i := fixed; i < p.rows(); i++ {
			p.weight[i] *= remaining / counts
		}
	}

	p.factorize(ridge)
	return p
}

// setBits makes mask the bitset of idx.
func setBits(mask []uint64, idx []int) {
	for i := range mask {
		mask[i] = 0
	}
	for _, b := range idx {
		mask[b>>6] |= 1 << (b & 63)
	}
}

// complement sets dst to the complement of mask within the plan's m features.
func (p *plan) complement(dst, mask []uint64) {
	for i, v := range mask {
		dst[i] = ^v
	}
	if r := p.m & 63; r != 0 {
		dst[p.words-1] &= 1<<r - 1
	}
}

// add appends coalition mask with kernel weight w as a design row.
func (p *plan) add(mask []uint64, w float64) {
	last := p.m - 1
	if mask[last>>6]>>(last&63)&1 == 0 {
		p.support = append(p.support, mask...)
		p.weight = append(p.weight, w)
		return
	}
	n := len(p.support)
	p.support = append(p.support, mask...)
	p.complement(p.support[n:], mask)
	p.weight = append(p.weight, -w)
}

// factorize accumulates ZᵀWZ + ridge·I from the rows' supports — row i adds
// |weight[i]| at every pair of its support — and factors it in place. Only
// the lower triangle is built; Cholesky reads nothing else.
func (p *plan) factorize(ridge float64) {
	d := p.m - 1
	a := linalg.NewMatrix(d, d)
	idx := make([]int, 0, d)
	for i, w := range p.weight {
		w = math.Abs(w)
		idx = idx[:0]
		for wi, v := range p.support[i*p.words : (i+1)*p.words] {
			for ; v != 0; v &= v - 1 {
				idx = append(idx, wi<<6+bits.TrailingZeros64(v))
			}
		}
		for k, r := range idx {
			row := a.Row(r)
			for _, c := range idx[:k+1] {
				row[c] += w
			}
		}
	}
	for i := 0; i < d; i++ {
		a.Set(i, i, a.At(i, i)+ridge)
	}
	p.chol = a
	p.err = linalg.Cholesky(a)
}

// The plan table. Diagnosis traffic asks for one plan per active-feature
// count (13..45 on AIIO's schema) under one configuration, so a small table
// holds the whole working set; the bounds only keep unusual callers — many
// seeds, huge explicit budgets — from growing it without limit.
const (
	// maxPlans bounds the number of cached plans.
	maxPlans = 64
	// maxPlanWords bounds their total size in 8-byte words (4 MB). A plan at
	// the auto budget on 45 counters is about 6 500 words.
	maxPlanWords = 1 << 19
)

type planKey struct {
	m, budget int
	seed      int64
	ridge     uint64 // math.Float64bits, so a NaN ridge is still one key
}

// words is an upper bound on the plan's size, known before it is built.
func (k planKey) words() int {
	return k.budget*((k.m+63)/64+1) + (k.m-1)*(k.m-1)
}

// planEntry is a table slot; once lets the table lock be dropped while the
// first asker builds the plan and later askers wait for that same build.
type planEntry struct {
	once sync.Once
	p    *plan
	used uint64 // table.clock at the last lookup
}

var planTable = struct {
	sync.Mutex
	entries map[planKey]*planEntry
	words   int
	clock   uint64
}{entries: make(map[planKey]*planEntry)}

// planFor returns the plan for the key, building it on first use. Every
// caller with the same key gets the same *plan while it stays cached; the
// least recently used plans are dropped to keep the table within maxPlans
// and maxPlanWords. A plan too large for the table is built for its caller
// alone.
func planFor(m, budget int, seed int64, ridge float64) *plan {
	key := planKey{m: m, budget: budget, seed: seed, ridge: math.Float64bits(ridge)}
	if key.words() > maxPlanWords {
		return buildPlan(m, budget, seed, ridge)
	}
	t := &planTable
	t.Lock()
	t.clock++
	e := t.entries[key]
	if e == nil {
		e = &planEntry{}
		t.entries[key] = e
		t.words += key.words()
		for len(t.entries) > maxPlans || t.words > maxPlanWords {
			var oldest planKey
			age := t.clock
			for k, v := range t.entries {
				if v != e && v.used < age {
					oldest, age = k, v.used
				}
			}
			delete(t.entries, oldest)
			t.words -= oldest.words()
		}
	}
	e.used = t.clock
	t.Unlock()
	e.once.Do(func() { e.p = buildPlan(m, budget, seed, ridge) })
	return e.p
}
