package runtime

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
)

func newTracker(t testing.TB, w, h int) (*Tracker, *graph.Graph) {
	t.Helper()
	g := graph.Grid(w, h)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, hs)
	t.Cleanup(tr.Stop)
	return tr, g
}

// checkInvariants asserts the shared trail invariants over the tracker's
// node stores; the tracker must be quiescent.
func checkInvariants(t *testing.T, tr *Tracker) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishQuerySingle(t *testing.T) {
	tr, g := newTracker(t, 6, 6)
	if err := tr.Publish(1, 17); err != nil {
		t.Fatal(err)
	}
	if err := tr.Publish(1, 0); err == nil {
		t.Fatal("duplicate publish accepted")
	}
	for u := 0; u < g.N(); u += 5 {
		got, cost, err := tr.Query(graph.NodeID(u), 1)
		if err != nil {
			t.Fatalf("query from %d: %v", u, err)
		}
		if got != 17 {
			t.Fatalf("query from %d said %d", u, got)
		}
		if cost < 0 {
			t.Fatalf("negative cost %v", cost)
		}
	}
	if tr.Cost() <= 0 {
		t.Fatal("no message cost recorded")
	}
	checkInvariants(t, tr)
}

func TestMoveAndTrack(t *testing.T) {
	tr, g := newTracker(t, 7, 7)
	if err := tr.Publish(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(9, 1); err == nil {
		t.Fatal("move of unpublished accepted")
	}
	if _, _, err := tr.Query(0, 9); err == nil {
		t.Fatal("query of unpublished accepted")
	}
	rng := rand.New(rand.NewSource(8))
	cur := graph.NodeID(0)
	for i := 0; i < 60; i++ {
		nbrs := g.NeighborIDs(cur)
		cur = nbrs[rng.Intn(len(nbrs))]
		if err := tr.Move(2, cur); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if v, _ := tr.Location(2); v != cur {
			t.Fatalf("location %d want %d", v, cur)
		}
	}
	got, _, err := tr.Query(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != cur {
		t.Fatalf("query said %d, proxy %d", got, cur)
	}
	checkInvariants(t, tr)
}

func TestMoveNoop(t *testing.T) {
	tr, _ := newTracker(t, 4, 4)
	if err := tr.Publish(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(1, 3); err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Location(1); v != 3 {
		t.Fatal("no-op move changed location")
	}
	checkInvariants(t, tr)
}

// Many objects tracked concurrently from multiple client goroutines — the
// distributed node loops must handle interleaved traffic for different
// objects without corruption.
func TestConcurrentObjectsParallelClients(t *testing.T) {
	tr, g := newTracker(t, 8, 8)
	const objs = 12
	var wg sync.WaitGroup
	errCh := make(chan error, objs)
	finals := make([]graph.NodeID, objs)
	for o := 0; o < objs; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + o)))
			cur := graph.NodeID(rng.Intn(g.N()))
			if err := tr.Publish(core.ObjectID(o), cur); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < 40; i++ {
				nbrs := g.NeighborIDs(cur)
				cur = nbrs[rng.Intn(len(nbrs))]
				if err := tr.Move(core.ObjectID(o), cur); err != nil {
					errCh <- err
					return
				}
				if i%10 == 0 {
					from := graph.NodeID(rng.Intn(g.N()))
					got, _, err := tr.Query(from, core.ObjectID(o))
					if err != nil {
						errCh <- err
						return
					}
					if got != cur {
						errCh <- errQuery{o: o, got: got, want: cur}
						return
					}
				}
			}
			finals[o] = cur
		}(o)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for o := 0; o < objs; o++ {
		got, _, err := tr.Query(0, core.ObjectID(o))
		if err != nil {
			t.Fatal(err)
		}
		if got != finals[o] {
			t.Fatalf("object %d at %d, query said %d", o, finals[o], got)
		}
	}
	checkInvariants(t, tr)
}

// The invariant check sees the trail across node stores: erasing one
// station's entry on its host breaks it.
func TestCheckInvariantsSpansNodeStores(t *testing.T) {
	tr, _ := newTracker(t, 6, 6)
	if err := tr.Publish(1, 17); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(1, 20); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	mid := tr.ov.HomeStation(20, 1)
	if _, ok := tr.stores[mid.Host].Erase(mid, 1); !ok {
		t.Fatalf("no entry for object 1 at %v", mid)
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("broken trail passed the invariant check")
	}
}

type errQuery struct {
	o         int
	got, want graph.NodeID
}

func (e errQuery) Error() string {
	return "query mismatch"
}

func TestStopTerminates(t *testing.T) {
	g := graph.Grid(4, 4)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, hs)
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	tr.Stop() // must return promptly; Cleanup-free direct call
}
