// Package partition builds the (O(log n), O(log n)) sparse-partition
// hierarchy the paper uses for general networks (§6), following the sparse
// covers of Awerbuch–Peleg (FOCS 1990) as used by Jia et al. (STOC 2005)
// and Sharma et al. (IPDPS 2012).
//
// Levels run 0..h with h ≈ ceil(log D)+1. Level 0 has one singleton cluster
// per node; at level l every ball of radius 2^l is fully contained in some
// cluster, clusters have radius O(2^l * log n), and each node belongs to
// O(log n) clusters. Each cluster has a leader node; the detection path of
// a node visits the leaders of all clusters containing it, level by level,
// in cluster-label order — exactly the general-network overlay the MOT
// directory runs on.
package partition

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/overlay"
	"sync"
)

// Config controls the partition hierarchy construction.
type Config struct {
	// SpecialParentOffset is the level offset for special parents
	// (Lemma 6.3 uses O(log log n) levels; experiments use a small
	// constant). Zero derives 2 + ceil(2*log2(log2(n))); negative
	// disables special parents.
	SpecialParentOffset int
	// GrowthFactor is the coarsening stop threshold of the sparse-cover
	// construction (n^(1/k) with k = log2 n gives 2, the default when 0).
	GrowthFactor float64
}

// Cluster is one cluster of one level.
type Cluster struct {
	ID      int // label within the level
	Level   int
	Leader  graph.NodeID
	Members []graph.NodeID // sorted
	Radius  float64        // max leader-to-member distance
}

// Hierarchy is the built sparse-partition overlay. It implements
// overlay.Overlay.
type Hierarchy struct {
	g   *graph.Graph
	m   graph.DistanceOracle
	cfg Config

	levels  [][]Cluster // levels[l] = clusters of level l, by ID
	byNode  [][][]int   // byNode[l][u] = IDs of level-l clusters containing u
	home    [][]int     // home[l][u] = ID of u's anchor cluster at level l
	h       int
	sigma   int
	pathsMu sync.RWMutex
	paths   map[graph.NodeID]overlay.Path
}

// Build constructs the hierarchy over a connected graph. All distances
// flow through the oracle's exact local queries (Near/Ball), so exact and
// oracle builds of the same inputs are identical.
func Build(g *graph.Graph, m graph.DistanceOracle, cfg Config) (*Hierarchy, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("partition: graph must be connected")
	}
	n := g.N()
	growth := cfg.GrowthFactor
	if growth <= 1 {
		growth = 2
	}
	hs := &Hierarchy{g: g, m: m, cfg: cfg, paths: make(map[graph.NodeID]overlay.Path)}

	// Level 0: singleton clusters.
	lvl0 := make([]Cluster, n)
	by0 := make([][]int, n)
	home0 := make([]int, n)
	for u := 0; u < n; u++ {
		lvl0[u] = Cluster{ID: u, Level: 0, Leader: graph.NodeID(u), Members: []graph.NodeID{graph.NodeID(u)}}
		by0[u] = []int{u}
		home0[u] = u
	}
	hs.levels = append(hs.levels, lvl0)
	hs.byNode = append(hs.byNode, by0)
	hs.home = append(hs.home, home0)

	// Higher levels: sparse covers of radius-2^l balls until a single
	// cluster holds everything. On the exact metric, taking the diameter
	// here freezes the flat table up front so every Ball below reads it;
	// an approximate oracle returns a ≤2× upper bound, which only delays
	// the convergence guard (never fires it early).
	diam := m.Diameter()
	maxIter := int(math.Ceil(math.Log2(float64(n)))) + 1
	for l := 1; ; l++ {
		r := math.Pow(2, float64(l))
		clusters := sparseCover(m, n, r, growth, maxIter, l)
		by := make([][]int, n)
		for _, c := range clusters {
			for _, u := range c.Members {
				by[u] = append(by[u], c.ID)
			}
		}
		// Anchor clusters: for each node, the smallest-label cluster that
		// contains its whole radius-2^l ball (the covering property
		// guarantees one exists; Lemma 6.1 needs the anchor, not just any
		// member cluster, so that nearby nodes' probes always find it).
		homes := make([]int, n)
		for u := 0; u < n; u++ {
			ball := m.Ball(graph.NodeID(u), r)
			homes[u] = -1
			for _, id := range by[u] {
				if containsAll(clusters[id].Members, ball) {
					homes[u] = id
					break
				}
			}
			if homes[u] < 0 {
				return nil, fmt.Errorf("partition: node %d has no ball-covering cluster at level %d", u, l)
			}
		}
		hs.levels = append(hs.levels, clusters)
		hs.byNode = append(hs.byNode, by)
		hs.home = append(hs.home, homes)
		if len(clusters) == 1 && len(clusters[0].Members) == n {
			hs.h = l
			break
		}
		if r > 4*diam+4 {
			return nil, fmt.Errorf("partition: cover did not converge to one cluster by level %d", l)
		}
	}

	switch {
	case cfg.SpecialParentOffset > 0:
		hs.sigma = cfg.SpecialParentOffset
	case cfg.SpecialParentOffset < 0:
		hs.sigma = 0
	default:
		lg := math.Log2(math.Max(2, math.Log2(float64(n)+1)))
		hs.sigma = 2 + int(math.Ceil(2*lg))
	}
	return hs, nil
}

// sparseCover covers all radius-r balls with clusters: repeatedly seed a
// cluster at the smallest uncovered center and absorb intersecting balls
// until the node count grows by less than the growth factor, then absorb
// that final layer and emit the cluster (Awerbuch–Peleg coarsening). Every
// absorbed center's full ball lies inside the emitted cluster.
func sparseCover(m graph.DistanceOracle, n int, r, growth float64, maxIter, level int) []Cluster {
	remaining := make([]bool, n)
	for u := range remaining {
		remaining[u] = true
	}
	left := n
	var clusters []Cluster
	for left > 0 {
		// Seed: smallest remaining center.
		seed := -1
		for u := 0; u < n; u++ {
			if remaining[u] {
				seed = u
				break
			}
		}
		inY := make([]bool, n)
		var members []graph.NodeID
		absorb := func(center graph.NodeID) {
			for _, nb := range m.Near(center, r, nil) {
				if !inY[nb.Node] {
					inY[nb.Node] = true
					members = append(members, nb.Node)
				}
			}
		}
		absorb(graph.NodeID(seed))
		merged := []int{seed}
		remaining[seed] = false
		left--

		for iter := 0; iter < maxIter; iter++ {
			// Centers whose ball intersects the current cluster.
			var layer []int
			for u := 0; u < n; u++ {
				if !remaining[u] {
					continue
				}
				// ball(u,r) intersects the cluster iff some in-cluster node
				// is within r of u (distances are symmetric).
				if len(m.Near(graph.NodeID(u), r, inY)) > 0 {
					layer = append(layer, u)
				}
			}
			if len(layer) == 0 {
				break
			}
			before := len(members)
			for _, u := range layer {
				absorb(graph.NodeID(u))
				remaining[u] = false
				left--
			}
			merged = append(merged, layer...)
			if float64(len(members)) <= growth*float64(before) {
				break // slow growth: emit with this layer absorbed
			}
		}

		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		leader := graph.NodeID(seed)
		radius := leaderRadius(m, leader, members, r*(1+2*float64(maxIter)))

		clusters = append(clusters, Cluster{
			ID:      len(clusters),
			Level:   level,
			Leader:  leader,
			Members: members,
			Radius:  radius,
		})
	}
	return clusters
}

// leaderRadius returns max_v dist(leader, v) over members, exactly, via
// Near. The coarsening absorbs at most maxIter layers each extending the
// cluster by ≤2r, so members lie within r·(1+2·maxIter) of the leader;
// the doubling retry is a safety net, not an expected path.
func leaderRadius(m graph.DistanceOracle, leader graph.NodeID, members []graph.NodeID, bound float64) float64 {
	for {
		near := make(map[graph.NodeID]float64, len(members)*2)
		for _, nb := range m.Near(leader, bound, nil) {
			near[nb.Node] = nb.D
		}
		radius, ok := 0.0, true
		for _, v := range members {
			d, in := near[v]
			if !in {
				ok = false
				break
			}
			if d > radius {
				radius = d
			}
		}
		if ok {
			return radius
		}
		bound *= 2
	}
}

// Height returns the top level index.
func (hs *Hierarchy) Height() int { return hs.h }

// Root returns the root station: the leader of the single top-level cluster.
func (hs *Hierarchy) Root() overlay.Station {
	c := hs.levels[hs.h][0]
	return overlay.Station{Level: hs.h, Key: int64(c.ID), Host: c.Leader}
}

// Metric returns the distance oracle.
func (hs *Hierarchy) Metric() graph.DistanceOracle { return hs.m }

// SpecialOffset returns sigma.
func (hs *Hierarchy) SpecialOffset() int { return hs.sigma }

// Clusters returns the clusters of level l (shared; do not modify).
func (hs *Hierarchy) Clusters(l int) []Cluster {
	if l < 0 || l > hs.h {
		return nil
	}
	return hs.levels[l]
}

// Membership returns the IDs of the level-l clusters containing u.
func (hs *Hierarchy) Membership(u graph.NodeID, l int) []int {
	if l < 0 || l > hs.h || int(u) < 0 || int(u) >= hs.g.N() {
		return nil
	}
	return hs.byNode[l][u]
}

// HomeStation returns u's anchor station at level l: the smallest-label
// cluster containing u's entire radius-2^l ball. Detection trails attach to
// anchors; probes sweep the full membership list for early meets.
func (hs *Hierarchy) HomeStation(u graph.NodeID, l int) overlay.Station {
	c := hs.levels[l][hs.home[l][u]]
	return overlay.Station{Level: l, Key: int64(c.ID), Host: c.Leader}
}

// containsAll reports whether every node of want is in the sorted members
// slice.
func containsAll(members []graph.NodeID, want []graph.NodeID) bool {
	set := make(map[graph.NodeID]bool, len(members))
	for _, v := range members {
		set[v] = true
	}
	for _, v := range want {
		if !set[v] {
			return false
		}
	}
	return true
}

// DPath returns the detection path of node u: per level, the leaders of all
// clusters containing u, in cluster-label order. Results are cached.
func (hs *Hierarchy) DPath(u graph.NodeID) overlay.Path {
	hs.pathsMu.RLock()
	p, ok := hs.paths[u]
	hs.pathsMu.RUnlock()
	if ok {
		return p
	}
	p = make(overlay.Path, hs.h+1)
	for l := 0; l <= hs.h; l++ {
		ids := hs.byNode[l][u]
		stations := make([]overlay.Station, len(ids))
		for i, id := range ids {
			c := hs.levels[l][id]
			stations[i] = overlay.Station{Level: l, Key: int64(id), Host: c.Leader}
		}
		p[l] = stations
	}
	hs.pathsMu.Lock()
	if prev, ok := hs.paths[u]; ok {
		hs.pathsMu.Unlock()
		return prev
	}
	hs.paths[u] = p
	hs.pathsMu.Unlock()
	return p
}

// Validate checks the sparse-partition invariants: level 0 singletons, the
// ball-covering property at every level (every radius-2^l ball fully inside
// some level-l cluster), every node covered at every level, and a single
// all-covering top cluster.
func (hs *Hierarchy) Validate() error {
	n := hs.g.N()
	for u := 0; u < n; u++ {
		if len(hs.byNode[0][u]) != 1 || hs.levels[0][hs.byNode[0][u][0]].Leader != graph.NodeID(u) {
			return fmt.Errorf("partition: level 0 not singleton at node %d", u)
		}
	}
	for l := 1; l <= hs.h; l++ {
		r := math.Pow(2, float64(l))
		for u := 0; u < n; u++ {
			if len(hs.byNode[l][u]) == 0 {
				return fmt.Errorf("partition: node %d uncovered at level %d", u, l)
			}
			ball := hs.m.Ball(graph.NodeID(u), r)
			contained := false
			for _, id := range hs.byNode[l][u] {
				c := hs.levels[l][id]
				inC := make(map[graph.NodeID]bool, len(c.Members))
				for _, v := range c.Members {
					inC[v] = true
				}
				all := true
				for _, v := range ball {
					if !inC[v] {
						all = false
						break
					}
				}
				if all {
					contained = true
					break
				}
			}
			if !contained {
				return fmt.Errorf("partition: ball(%d, 2^%d) not contained in any level-%d cluster", u, l, l)
			}
		}
	}
	top := hs.levels[hs.h]
	if len(top) != 1 || len(top[0].Members) != n {
		return fmt.Errorf("partition: top level not a single all-covering cluster")
	}
	return nil
}

// Stats summarizes the hierarchy.
type Stats struct {
	Height        int
	ClusterCounts []int
	MaxMembership []int // per level, max clusters containing one node
	MaxRadius     []float64
	Sigma         int
}

// Stats returns summary statistics.
func (hs *Hierarchy) Stats() Stats {
	st := Stats{Height: hs.h, Sigma: hs.sigma}
	for l := 0; l <= hs.h; l++ {
		st.ClusterCounts = append(st.ClusterCounts, len(hs.levels[l]))
		maxM, maxR := 0, 0.0
		for u := 0; u < hs.g.N(); u++ {
			if len(hs.byNode[l][u]) > maxM {
				maxM = len(hs.byNode[l][u])
			}
		}
		for _, c := range hs.levels[l] {
			if c.Radius > maxR {
				maxR = c.Radius
			}
		}
		st.MaxMembership = append(st.MaxMembership, maxM)
		st.MaxRadius = append(st.MaxRadius, maxR)
	}
	return st
}

var _ overlay.Overlay = (*Hierarchy)(nil)
