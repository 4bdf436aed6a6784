package shap

import (
	"math"
	"math/bits"
	"math/rand"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// GreedyUnpairedOracle exposes the oracle to the package's external tests.
var GreedyUnpairedOracle = greedyUnpaired

// greedyUnpaired is the sampled estimator this package shipped before
// coalition plans, kept as the oracle the estimator-error tests measure the
// current one against. It differs in the two rules the plan replaced: it
// enumerates a size level whenever the level merely fits the budget left
// (so at 15 features and 4096 rows, sizes 1–4 take 3880 rows and 216 draws
// carry all the weight of sizes 5–7), and it draws the random tail one
// coalition at a time, each of its own size and side, never in complement
// pairs. The rows go through linalg.WeightedRidge on the dense design
// matrix. At most 64 active features.
func greedyUnpaired(f PredictFunc, x, bg []float64, budget int, seed int64, ridge float64) []float64 {
	var active []int
	for j := range x {
		if x[j] != bg[j] {
			active = append(active, j)
		}
	}
	m := len(active)
	if m < 2 || m > 64 {
		panic("shap: greedyUnpaired wants 2..64 active features")
	}
	rng := rand.New(&splitmix64{s: uint64(seed)})

	var masks []uint64
	var weights []float64
	all := ^uint64(0) >> (64 - m)
	sizeWeight := func(s int) float64 {
		w := kernelSizeWeight(m, s)
		if s != m-s {
			w *= 2
		}
		return w
	}
	maxPair := m / 2
	remainingWeight := 0.0
	for s := 1; s <= maxPair; s++ {
		remainingWeight += sizeWeight(s)
	}

	used := 0
	lastComplete := 0
	for s := 1; s <= maxPair; s++ {
		total := binom(m, s)
		if s != m-s {
			total *= 2
		}
		if float64(budget-used) < total {
			break
		}
		w := sizeWeight(s)
		forEachSubset(m, s, func(idx []int) {
			var mask uint64
			for _, i := range idx {
				mask |= 1 << i
			}
			masks = append(masks, mask)
			weights = append(weights, w/total)
			if s != m-s {
				masks = append(masks, ^mask&all)
				weights = append(weights, w/total)
			}
		})
		used += int(total)
		remainingWeight -= w
		lastComplete = s
	}

	if nRand := budget - used; remainingWeight > 1e-12 && nRand > 0 && lastComplete < maxPair {
		var sizes []int
		var cumw []float64
		tot := 0.0
		for s := lastComplete + 1; s <= maxPair; s++ {
			tot += sizeWeight(s)
			sizes = append(sizes, s)
			cumw = append(cumw, tot)
		}
		perm := make([]int, m)
		for i := range perm {
			perm[i] = i
		}
		for k := 0; k < nRand; k++ {
			r := rng.Float64() * tot
			si := 0
			for si < len(cumw)-1 && r > cumw[si] {
				si++
			}
			s := sizes[si]
			kk := s
			if s != m-s && rng.Intn(2) == 1 {
				s = m - s
			}
			for i := 0; i < kk; i++ {
				j := i + rng.Intn(m-i)
				perm[i], perm[j] = perm[j], perm[i]
			}
			chosen := perm[:kk]
			if s != kk {
				chosen = perm[kk:]
			}
			var mask uint64
			for _, i := range chosen {
				mask |= 1 << i
			}
			masks = append(masks, mask)
			weights = append(weights, remainingWeight/float64(nRand))
		}
	}

	n := len(masks)
	inputs := linalg.NewMatrix(n+2, len(x))
	copy(inputs.Row(n), bg)
	copy(inputs.Row(n+1), x)
	for i, mask := range masks {
		row := inputs.Row(i)
		copy(row, bg)
		for v := mask; v != 0; v &= v - 1 {
			j := active[bits.TrailingZeros64(v)]
			row[j] = x[j]
		}
	}
	vals := f(inputs)
	base, fx := vals[n], vals[n+1]

	// Constrained WLS: the efficiency constraint eliminates the last active
	// feature.
	delta := fx - base
	z := linalg.NewMatrix(n, m-1)
	y := make([]float64, n)
	for i, mask := range masks {
		last := float64(mask >> (m - 1) & 1)
		row := z.Row(i)
		for b := range row {
			row[b] = float64(mask>>b&1) - last
		}
		y[i] = vals[i] - base - last*delta
	}
	phi := make([]float64, len(x))
	beta, err := linalg.WeightedRidge(z, y, weights, ridge, false)
	if err != nil {
		for _, j := range active {
			phi[j] = math.NaN()
		}
		return phi
	}
	sum := 0.0
	for b, v := range beta {
		phi[active[b]] = v
		sum += v
	}
	phi[active[m-1]] = delta - sum
	return phi
}
