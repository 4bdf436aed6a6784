package gbdt

import (
	"math"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// buildObliviousQuadratic is the oblivious tree builder this package shipped
// before the running-prefix split search, kept as the oracle the current one
// must match bit for bit. For every candidate (slot, bin) it re-sums each
// leaf's histogram prefix from bin 0 — O(leaves·features·bins²) per level —
// over per-leaf copies of the pooled histogram.
func (tr *trainer) buildObliviousQuadratic(m *Model) *Tree {
	t := &Tree{}
	g, h := tr.sums(0, len(tr.idx))
	root := t.leaf(tr.leafValue(g, h))
	level := []levelTask{{node: root, lo: 0, hi: len(tr.idx), sumG: g, sumH: h}}
	hist := tr.newHistogram()

	for depth := 0; depth < tr.cfg.MaxDepth; depth++ {
		hists := make([][]float64, len(level))
		for li, task := range level {
			tr.buildHist(hist, task.lo, task.hi)
			hists[li] = append([]float64(nil), hist.data...)
		}
		bestGain := 0.0
		bestSlot, bestBin := -1, uint8(0)
		for s := range tr.features {
			base := 2 * hist.base[s]
			for b := 0; b < hist.nBins[s]-1; b++ {
				total := 0.0
				ok := false
				for li, task := range level {
					gl, hl := 0.0, 0.0
					for bb := 0; bb <= b; bb++ {
						gl += hists[li][base+2*bb]
						hl += hists[li][base+2*bb+1]
					}
					gr := task.sumG - gl
					hr := task.sumH - hl
					if hl < tr.cfg.MinChildWeight || hr < tr.cfg.MinChildWeight {
						continue
					}
					gain := 0.5*(tr.score(gl, hl)+tr.score(gr, hr)-tr.score(task.sumG, task.sumH)) - tr.cfg.Gamma
					if gain > 0 {
						total += gain
						ok = true
					}
				}
				if ok && total > bestGain {
					bestGain = total
					bestSlot = s
					bestBin = uint8(b)
				}
			}
		}
		if bestSlot < 0 {
			break
		}
		f := tr.features[bestSlot]
		m.Gain[f] += bestGain
		threshold := tr.bins.Upper(f, bestBin)

		next := make([]levelTask, 0, 2*len(level))
		for _, task := range level {
			mid := tr.partition(task.lo, task.hi, f, bestBin)
			gl, hl := tr.sums(task.lo, mid)
			gr, hr := task.sumG-gl, task.sumH-hl
			parentValue := t.Value[task.node]
			t.setSplit(task.node, int32(f), bestBin, threshold)
			lv, rv := tr.leafValue(gl, hl), tr.leafValue(gr, hr)
			if mid == task.lo {
				lv = parentValue
			}
			if mid == task.hi {
				rv = parentValue
			}
			left := t.leaf(lv)
			right := t.leaf(rv)
			t.Left[task.node] = left
			t.Right[task.node] = right
			if mid > task.lo {
				next = append(next, levelTask{node: left, lo: task.lo, hi: mid, sumG: gl, sumH: hl})
			}
			if mid < task.hi {
				next = append(next, levelTask{node: right, lo: mid, hi: task.hi, sumG: gr, sumH: hr})
			}
		}
		level = next
		if len(level) == 0 {
			break
		}
	}
	tr.freeHist(hist)
	return t
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertSameForest fails unless got and want are node-for-node identical and
// predict bit-equal on x.
func assertSameForest(t *testing.T, got, want *Model, x *linalg.Matrix) {
	t.Helper()
	if len(got.Trees) != len(want.Trees) || got.BestIteration != want.BestIteration {
		t.Fatalf("%d trees (best %d), oracle %d (best %d)",
			len(got.Trees), got.BestIteration, len(want.Trees), want.BestIteration)
	}
	for k, gt := range got.Trees {
		wt := want.Trees[k]
		if gt.NumNodes() != wt.NumNodes() {
			t.Fatalf("tree %d: %d nodes, oracle %d", k, gt.NumNodes(), wt.NumNodes())
		}
		for i := range gt.Feature {
			if gt.Feature[i] != wt.Feature[i] || gt.Bin[i] != wt.Bin[i] ||
				gt.Left[i] != wt.Left[i] || gt.Right[i] != wt.Right[i] ||
				math.Float64bits(gt.Threshold[i]) != math.Float64bits(wt.Threshold[i]) ||
				math.Float64bits(gt.Value[i]) != math.Float64bits(wt.Value[i]) {
				t.Fatalf("tree %d node %d: (f%d b%d thr %v val %v L%d R%d), oracle (f%d b%d thr %v val %v L%d R%d)",
					k, i, gt.Feature[i], gt.Bin[i], gt.Threshold[i], gt.Value[i], gt.Left[i], gt.Right[i],
					wt.Feature[i], wt.Bin[i], wt.Threshold[i], wt.Value[i], wt.Left[i], wt.Right[i])
			}
		}
	}
	if !sameBits(got.Gain, want.Gain) {
		t.Fatalf("gain importance %v, oracle %v", got.Gain, want.Gain)
	}
	if !sameBits(got.PredictBatch(x), want.PredictBatch(x)) {
		t.Fatal("predictions differ from the oracle's")
	}
}

// TestObliviousScanMatchesOracle pins the running-prefix split search to the
// quadratic scan it replaced: same trees node for node, same gain, same
// predictions, across every config knob the scan reads.
func TestObliviousScanMatchesOracle(t *testing.T) {
	oblivious := func(edit func(*Config)) Config {
		cfg := DefaultConfig(Oblivious)
		cfg.Rounds = 12
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		rows int
		cols int
		// zeroCol, when >= 0, zeroes a column so it bins to a single bin.
		zeroCol int
	}{
		{"subsample/seed1", oblivious(nil), 400, 10, -1},
		{"subsample/seed2", oblivious(func(c *Config) { c.Seed = 2 }), 400, 10, -1},
		{"subsample/seed3", oblivious(func(c *Config) { c.Seed = 3 }), 400, 10, -1},
		{"colsample0.5", oblivious(func(c *Config) { c.ColSample = 0.5 }), 400, 10, -1},
		{"minchildweight", oblivious(func(c *Config) { c.MinChildWeight = 12 }), 400, 10, -1},
		{"gamma", oblivious(func(c *Config) { c.Gamma = 2 }), 400, 10, -1},
		{"one-bin feature", oblivious(nil), 400, 10, 2},
		{"depth0", oblivious(func(c *Config) { c.MaxDepth = 0 }), 400, 10, -1},
		{"depth1", oblivious(func(c *Config) { c.MaxDepth = 1 }), 400, 10, -1},
		// Past parallelFor's sequential cutoff, so the per-slot passes fan
		// out across workers.
		{"wide", oblivious(func(c *Config) { c.Rounds = 3 }), 160, 300, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y := synth(tc.rows, tc.cols, 31)
			if tc.zeroCol >= 0 {
				for i := 0; i < x.Rows; i++ {
					x.Set(i, tc.zeroCol, 0)
				}
			}
			xTr, yTr, xEv, yEv := trainTestSplit(x, y, 0.5, 32)
			if tc.zeroCol >= 0 {
				if n := FitBins(xTr, tc.cfg.MaxBins).NumBins(tc.zeroCol); n != 1 {
					t.Fatalf("zeroed feature has %d bins, want 1", n)
				}
			}
			got, err := Train(tc.cfg, xTr, yTr, xEv, yEv)
			if err != nil {
				t.Fatal(err)
			}
			want, err := train(tc.cfg, xTr, yTr, xEv, yEv, nil, nil, (*trainer).buildObliviousQuadratic)
			if err != nil {
				t.Fatal(err)
			}
			assertSameForest(t, got, want, xEv)
			if tc.cfg.MaxDepth > 0 && splitCount(got) == 0 {
				t.Fatal("no tree split: the comparison is vacuous")
			}
		})
	}

	t.Run("warm start", func(t *testing.T) {
		x, y := synth(800, 10, 41)
		xOld, yOld, xNew, yNew := trainTestSplit(x, y, 0.5, 42)
		cfg := oblivious(nil)
		prev, err := Train(cfg, xOld, yOld, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		xTr, yTr, xEv, yEv := trainTestSplit(xNew, yNew, 0.5, 43)
		seed, why := CheckWarmStart(prev, cfg, xTr, yTr)
		if seed == nil {
			t.Fatalf("warm start refused: %s", why)
		}
		got, err := TrainSeeded(cfg, xTr, yTr, xEv, yEv, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := train(cfg, xTr, yTr, xEv, yEv, seed.prev, seed.bins, (*trainer).buildObliviousQuadratic)
		if err != nil {
			t.Fatal(err)
		}
		assertSameForest(t, got, want, xEv)
		if len(got.Trees) <= len(prev.Trees) {
			t.Fatalf("warm fit added no trees to the %d-tree seed", len(prev.Trees))
		}
	})
}

// splitCount is the number of internal nodes across m's trees.
func splitCount(m *Model) int {
	n := 0
	for _, t := range m.Trees {
		for _, f := range t.Feature {
			if f >= 0 {
				n++
			}
		}
	}
	return n
}
