package hier

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// homeWalk is HomeStation computed by walking the default-parent tables.
func homeWalk(hs *Hierarchy, u graph.NodeID, l int) overlay.Station {
	h := hs.Home(u, l)
	return overlay.Station{Level: l, Key: int64(h), Host: h}
}

// checkHomes asserts HomeStation(u, l) equals the Home walk for every
// node and level, and that each home station lies on the node's
// detection path.
func checkHomes(t *testing.T, hs *Hierarchy, when string) {
	t.Helper()
	for u := graph.NodeID(0); int(u) < hs.g.N(); u++ {
		p := hs.DPath(u)
		if len(p) != hs.Height()+1 {
			t.Fatalf("%s: DPath(%d) has %d levels, height %d", when, u, len(p), hs.Height())
		}
		for l := 0; l <= hs.Height(); l++ {
			got, want := hs.HomeStation(u, l), homeWalk(hs, u, l)
			if got != want {
				t.Fatalf("%s: HomeStation(%d, %d) = %v, Home walk %v", when, u, l, got, want)
			}
			if !hs.IsExcluded(u) && !slices.Contains(p[l], got) {
				t.Fatalf("%s: home station %v not on DPath(%d) level %d: %v", when, got, u, l, p[l])
			}
		}
	}
}

func TestHomeStationMatchesHomeWalk(t *testing.T) {
	for _, ps := range []bool{false, true} {
		g := graph.Grid(9, 7)
		hs := build(t, g, Config{Seed: 4, UseParentSets: ps, SpecialParentOffset: 2})
		checkHomes(t, hs, "build")
	}
}

// Repair must drop the cached home chains along with the paths: a chain
// cached before a repair that moved the root would otherwise survive it.
func TestHomeStationAfterRepair(t *testing.T) {
	g := graph.Grid(8, 8)
	hs := buildIncr(t, g, Config{Seed: 1, UseParentSets: true, SpecialParentOffset: 2}, nil)
	checkHomes(t, hs, "build") // fills the cache
	before := make([][]overlay.Station, g.N())
	for u := range before {
		for l := 0; l <= hs.Height(); l++ {
			before[u] = append(before[u], hs.HomeStation(graph.NodeID(u), l))
		}
	}
	root := hs.RootNode()
	if err := hs.Exclude(root); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Repair([]graph.NodeID{root}); err != nil {
		t.Fatal(err)
	}
	checkHomes(t, hs, "after excluding the root")
	changed := 0
	for u := range before {
		for l := 0; l <= hs.Height(); l++ {
			if l >= len(before[u]) || hs.HomeStation(graph.NodeID(u), l) != before[u][l] {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("excluding the root changed no home chain; the test shows nothing")
	}
	if err := hs.Readmit(root); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Repair([]graph.NodeID{root}); err != nil {
		t.Fatal(err)
	}
	checkHomes(t, hs, "after readmitting the root")
}

// TestRaceHomeStation reads HomeStation and DPath from several goroutines
// on a cold cache, so racing builders of one node's entry meet; under
// -race it checks the lock-free cache.
func TestRaceHomeStation(t *testing.T) {
	g := graph.Grid(12, 12)
	hs := build(t, g, Config{Seed: 2, UseParentSets: true, SpecialParentOffset: 2})
	n, h := g.N(), hs.Height()
	want := make([][]overlay.Station, n)
	for u := range want {
		for l := 0; l <= h; l++ {
			want[u] = append(want[u], homeWalk(hs, graph.NodeID(u), l))
		}
	}
	const workers = 4
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				u := graph.NodeID((i + w*n/workers) % n)
				if w%2 == 1 {
					u = graph.NodeID(n-1) - u
					_ = hs.DPath(u)
				}
				for l := 0; l <= h; l++ {
					if got := hs.HomeStation(u, l); got != want[u][l] {
						errs[w] = "HomeStation(" + got.String() + ") != " + want[u][l].String()
						return
					}
				}
				if p := hs.DPath(u); !slices.Contains(p[h], want[u][h]) {
					errs[w] = "DPath top level misses the root"
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Fatalf("worker %d: %s", w, e)
		}
	}
}
