package cluster

import (
	"math/rand"
	"testing"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// blobs generates k Gaussian blobs of m points each in d dimensions, well
// separated, plus a few uniform noise points. Returns data and true labels.
func blobs(k, m, d int, seed int64, noise int) (*linalg.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	n := k*m + noise
	x := linalg.NewMatrix(n, d)
	truth := make([]int, n)
	for c := 0; c < k; c++ {
		center := make([]float64, d)
		for j := range center {
			center[j] = float64(c*20) + rng.Float64()
		}
		for i := 0; i < m; i++ {
			row := x.Row(c*m + i)
			for j := range row {
				row[j] = center[j] + rng.NormFloat64()*0.5
			}
			truth[c*m+i] = c
		}
	}
	for i := 0; i < noise; i++ {
		row := x.Row(k*m + i)
		for j := range row {
			row[j] = rng.Float64()*float64(k)*40 - 10
		}
		truth[k*m+i] = Noise
	}
	return x, truth
}

// NumClusters counts distinct non-noise labels.
func NumClusters(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		if l != Noise {
			seen[l] = true
		}
	}
	return len(seen)
}

func TestHDBSCANFindsBlobs(t *testing.T) {
	x, truth := blobs(3, 40, 4, 1, 0)
	labels := HDBSCAN(x, HDBSCANConfig{MinClusterSize: 10})
	if got := NumClusters(labels); got != 3 {
		t.Fatalf("found %d clusters, want 3 (labels: %v)", got, labels[:20])
	}
	// Cluster purity: every found cluster maps to one true blob.
	for c := 0; c < 3; c++ {
		members := Members(labels, c)
		if len(members) < 30 {
			t.Errorf("cluster %d has only %d members", c, len(members))
		}
		first := truth[members[0]]
		for _, i := range members {
			if truth[i] != first {
				t.Errorf("cluster %d mixes true blobs %d and %d", c, first, truth[i])
			}
		}
	}
}

func TestHDBSCANNoiseDetection(t *testing.T) {
	x, _ := blobs(2, 50, 3, 2, 6)
	labels := HDBSCAN(x, HDBSCANConfig{MinClusterSize: 15})
	if got := NumClusters(labels); got != 2 {
		t.Fatalf("found %d clusters, want 2", got)
	}
	noise := 0
	for _, l := range labels {
		if l == Noise {
			noise++
		}
	}
	if noise == 0 {
		t.Error("no noise points detected despite uniform outliers")
	}
}

func TestHDBSCANPermutationInvariance(t *testing.T) {
	x, _ := blobs(3, 30, 3, 3, 5)
	labels := HDBSCAN(x, HDBSCANConfig{MinClusterSize: 10})

	perm := rand.New(rand.NewSource(9)).Perm(x.Rows)
	xp := linalg.NewMatrix(x.Rows, x.Cols)
	for i, j := range perm {
		copy(xp.Row(i), x.Row(j))
	}
	labelsP := HDBSCAN(xp, HDBSCANConfig{MinClusterSize: 10})

	// Same partition up to relabeling: check pairwise co-membership.
	same := func(l []int, a, b int) bool { return l[a] != Noise && l[a] == l[b] }
	for trial := 0; trial < 500; trial++ {
		a := trial % x.Rows
		b := (trial * 7) % x.Rows
		pa, pb := indexOf(perm, a), indexOf(perm, b)
		if same(labels, a, b) != same(labelsP, pa, pb) {
			t.Fatalf("co-membership of %d,%d changed under permutation", a, b)
		}
	}
}

func indexOf(perm []int, v int) int {
	for i, p := range perm {
		if p == v {
			return i
		}
	}
	return -1
}

func TestHDBSCANDegenerateInputs(t *testing.T) {
	empty := HDBSCAN(linalg.NewMatrix(0, 3), HDBSCANConfig{MinClusterSize: 5})
	if len(empty) != 0 {
		t.Error("empty input should give empty labels")
	}
	tiny, _ := blobs(1, 3, 2, 4, 0)
	labels := HDBSCAN(tiny, HDBSCANConfig{MinClusterSize: 5})
	for _, l := range labels {
		if l != Noise {
			t.Error("tiny input should be all noise")
		}
	}
	// Identical points: one cluster.
	same := linalg.NewMatrix(20, 2)
	for i := 0; i < 20; i++ {
		same.Set(i, 0, 1)
		same.Set(i, 1, 2)
	}
	labels = HDBSCAN(same, HDBSCANConfig{MinClusterSize: 5})
	if NumClusters(labels) > 1 {
		t.Errorf("identical points split into %d clusters", NumClusters(labels))
	}
}

func TestLargestCluster(t *testing.T) {
	labels := []int{0, 0, 1, 1, 1, Noise}
	l, err := LargestCluster(labels)
	if err != nil || l != 1 {
		t.Errorf("LargestCluster = %d, %v", l, err)
	}
	if _, err := LargestCluster([]int{Noise, Noise}); err == nil {
		t.Error("all-noise input should error")
	}
}

func BenchmarkHDBSCAN500(b *testing.B) {
	x, _ := blobs(4, 125, 8, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HDBSCAN(x, HDBSCANConfig{MinClusterSize: 20})
	}
}
