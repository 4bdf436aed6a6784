// Package cluster provides the clustering machinery the paper's related
// work (Gauge) is built on: HDBSCAN — hierarchical density-based clustering
// via mutual-reachability minimum spanning trees, condensed trees and
// stability-based cluster extraction. AIIO itself
// needs no clustering; these implementations power the Fig. 1 comparison
// showing why group-level diagnosis fails at the job level.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/hpc-repro/aiio/internal/linalg"
)

// HDBSCANConfig mirrors the common library parameters.
type HDBSCANConfig struct {
	// MinClusterSize is the smallest cluster the condensed tree keeps. It
	// is also the k used for core distances: the library's min_samples
	// default.
	MinClusterSize int
}

// Noise is the label of points not assigned to any cluster.
const Noise = -1

// HDBSCAN clusters the rows of x and returns one label per row, with Noise
// (-1) for outliers. Labels are contiguous integers starting at 0, ordered
// by first occurrence.
func HDBSCAN(x *linalg.Matrix, cfg HDBSCANConfig) []int {
	n := x.Rows
	if cfg.MinClusterSize < 2 {
		cfg.MinClusterSize = 2
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return labels
	}
	if n <= cfg.MinClusterSize {
		return labels // everything is noise: no cluster can form
	}

	dist := pairwiseDistances(x)
	core := coreDistances(dist, n, cfg.MinClusterSize)
	edges := mstEdges(dist, core, n)
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })

	root := buildDendrogram(edges, n)
	condensed := condense(root, n, cfg.MinClusterSize)
	selected := selectClusters(condensed)

	// Assign each point to its selected ancestor cluster, if any.
	for _, c := range condensed.clusters {
		if !selected[c.id] {
			continue
		}
		for _, p := range c.points {
			labels[p] = c.id
		}
		// Points of selected descendants belong to the selected ancestor
		// only if the descendant itself is unselected; selection is
		// exclusive along paths, so walk descendants.
		var claim func(child *condCluster)
		claim = func(child *condCluster) {
			for _, cc := range child.children {
				for _, p := range cc.points {
					labels[p] = c.id
				}
				claim(cc)
			}
		}
		if !hasSelectedDescendant(c, selected) {
			claim(c)
		}
	}
	return compactLabels(labels)
}

func hasSelectedDescendant(c *condCluster, selected map[int]bool) bool {
	for _, ch := range c.children {
		if selected[ch.id] || hasSelectedDescendant(ch, selected) {
			return true
		}
	}
	return false
}

// compactLabels renumbers labels to 0..k-1 by first occurrence.
func compactLabels(labels []int) []int {
	next := 0
	m := map[int]int{}
	for i, l := range labels {
		if l == Noise {
			continue
		}
		if _, ok := m[l]; !ok {
			m[l] = next
			next++
		}
		labels[i] = m[l]
	}
	return labels
}

// pairwiseDistances computes the full Euclidean distance matrix (flat n*n).
func pairwiseDistances(x *linalg.Matrix) []float64 {
	n := x.Rows
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		ri := x.Row(i)
		for j := i + 1; j < n; j++ {
			rj := x.Row(j)
			s := 0.0
			for k := range ri {
				diff := ri[k] - rj[k]
				s += diff * diff
			}
			v := math.Sqrt(s)
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
	return d
}

// coreDistances returns each point's distance to its k-th nearest
// neighbour.
func coreDistances(dist []float64, n, k int) []float64 {
	if k >= n {
		k = n - 1
	}
	core := make([]float64, n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		copy(row, dist[i*n:(i+1)*n])
		sort.Float64s(row)
		core[i] = row[k] // row[0] is the self-distance 0
	}
	return core
}

type edge struct {
	a, b int
	w    float64
}

// mstEdges builds the minimum spanning tree of the mutual-reachability
// graph with Prim's algorithm in O(n²).
func mstEdges(dist, core []float64, n int) []edge {
	inTree := make([]bool, n)
	best := make([]float64, n)
	bestFrom := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	edges := make([]edge, 0, n-1)
	cur := 0
	inTree[0] = true
	for len(edges) < n-1 {
		// Relax edges out of cur.
		for j := 0; j < n; j++ {
			if inTree[j] {
				continue
			}
			w := dist[cur*n+j]
			if core[cur] > w {
				w = core[cur]
			}
			if core[j] > w {
				w = core[j]
			}
			if w < best[j] {
				best[j] = w
				bestFrom[j] = cur
			}
		}
		// Pick the closest non-tree vertex.
		next := -1
		bw := math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] < bw {
				bw = best[j]
				next = j
			}
		}
		edges = append(edges, edge{a: bestFrom[next], b: next, w: bw})
		inTree[next] = true
		cur = next
	}
	return edges
}

// dendroNode is a node of the single-linkage tree. Leaves have id < n.
type dendroNode struct {
	id          int
	dist        float64 // merge distance (0 for leaves)
	size        int
	left, right *dendroNode
}

// buildDendrogram merges sorted MST edges into a binary hierarchy.
func buildDendrogram(edges []edge, n int) *dendroNode {
	parent := make([]int, n)
	nodes := make(map[int]*dendroNode, 2*n)
	for i := 0; i < n; i++ {
		parent[i] = i
		nodes[i] = &dendroNode{id: i, size: 1}
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	roots := make([]int, n) // union-find root -> dendrogram node id
	for i := 0; i < n; i++ {
		roots[i] = i
	}
	nextID := n
	var top *dendroNode
	for _, e := range edges {
		ra, rb := find(e.a), find(e.b)
		na, nb := nodes[roots[ra]], nodes[roots[rb]]
		merged := &dendroNode{
			id: nextID, dist: e.w, size: na.size + nb.size,
			left: na, right: nb,
		}
		nodes[nextID] = merged
		nextID++
		parent[ra] = rb
		roots[find(rb)] = merged.id
		top = merged
	}
	return top
}

// condCluster is a node of the condensed tree.
type condCluster struct {
	id          int
	parent      *condCluster
	children    []*condCluster
	lambdaBirth float64
	// points that fell out of this cluster, with their fall-out lambda.
	points    []int
	lambdas   []float64
	stability float64
}

type condensedTree struct {
	root     *condCluster
	clusters []*condCluster
}

// condense walks the dendrogram and produces the condensed tree: splits
// where both sides have at least minClusterSize points are real splits;
// smaller sides fall out of the current cluster.
func condense(root *dendroNode, n, minClusterSize int) *condensedTree {
	t := &condensedTree{}
	nextID := 0
	newCluster := func(parent *condCluster, lambda float64) *condCluster {
		c := &condCluster{id: nextID, parent: parent, lambdaBirth: lambda}
		nextID++
		t.clusters = append(t.clusters, c)
		if parent != nil {
			parent.children = append(parent.children, c)
		}
		return c
	}
	t.root = newCluster(nil, 0)

	var dropAll func(node *dendroNode, c *condCluster, lambda float64)
	dropAll = func(node *dendroNode, c *condCluster, lambda float64) {
		if node.left == nil {
			c.points = append(c.points, node.id)
			c.lambdas = append(c.lambdas, lambda)
			return
		}
		// Points separate at the larger of lambda and the node's own split.
		l := lambdaOf(node.dist)
		if l < lambda {
			l = lambda
		}
		dropAll(node.left, c, l)
		dropAll(node.right, c, l)
	}

	var walk func(node *dendroNode, c *condCluster)
	walk = func(node *dendroNode, c *condCluster) {
		if node.left == nil {
			c.points = append(c.points, node.id)
			c.lambdas = append(c.lambdas, math.Inf(1))
			return
		}
		lambda := lambdaOf(node.dist)
		lBig := node.left.size >= minClusterSize
		rBig := node.right.size >= minClusterSize
		switch {
		case lBig && rBig:
			left := newCluster(c, lambda)
			right := newCluster(c, lambda)
			walk(node.left, left)
			walk(node.right, right)
		case lBig:
			dropAll(node.right, c, lambda)
			walk(node.left, c)
		case rBig:
			dropAll(node.left, c, lambda)
			walk(node.right, c)
		default:
			dropAll(node.left, c, lambda)
			dropAll(node.right, c, lambda)
		}
	}
	walk(root, t.root)

	// Stabilities: Σ min(λ_p, λ_maxChildBirth) − λ_birth, standard form:
	// use each point's fall-out lambda, capped at the cluster's death.
	for _, c := range t.clusters {
		death := math.Inf(1)
		if len(c.children) > 0 {
			death = c.children[0].lambdaBirth
		}
		s := 0.0
		for _, l := range c.lambdas {
			lp := l
			if lp > death {
				lp = death
			}
			if math.IsInf(lp, 1) {
				continue
			}
			s += lp - c.lambdaBirth
		}
		// Children contribute their mass up to their birth.
		for _, ch := range c.children {
			s += float64(clusterMass(ch)) * (ch.lambdaBirth - c.lambdaBirth)
		}
		c.stability = s
	}
	return t
}

func clusterMass(c *condCluster) int {
	n := len(c.points)
	for _, ch := range c.children {
		n += clusterMass(ch)
	}
	return n
}

func lambdaOf(dist float64) float64 {
	if dist <= 0 {
		return math.Inf(1)
	}
	return 1 / dist
}

// selectClusters runs the bottom-up stability selection (excess of mass).
// The root is never selected, matching allow_single_cluster=false.
func selectClusters(t *condensedTree) map[int]bool {
	selected := make(map[int]bool)
	var walk func(c *condCluster) float64
	walk = func(c *condCluster) float64 {
		if len(c.children) == 0 {
			if c != t.root {
				selected[c.id] = true
			}
			return c.stability
		}
		childSum := 0.0
		for _, ch := range c.children {
			childSum += walk(ch)
		}
		if c == t.root {
			return childSum
		}
		if c.stability >= childSum {
			// Keep this cluster, deselect all descendants.
			var clear func(cc *condCluster)
			clear = func(cc *condCluster) {
				delete(selected, cc.id)
				for _, g := range cc.children {
					clear(g)
				}
			}
			clear(c)
			selected[c.id] = true
			return c.stability
		}
		return childSum
	}
	walk(t.root)
	return selected
}

// Members returns the row indices with the given label.
func Members(labels []int, label int) []int {
	var out []int
	for i, l := range labels {
		if l == label {
			out = append(out, i)
		}
	}
	return out
}

// LargestCluster returns the label of the most populous cluster, or an
// error if everything is noise.
func LargestCluster(labels []int) (int, error) {
	counts := map[int]int{}
	for _, l := range labels {
		if l != Noise {
			counts[l]++
		}
	}
	best, bestN := 0, -1
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	if bestN < 0 {
		return 0, fmt.Errorf("cluster: all points are noise")
	}
	return best, nil
}
