package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/sim"
)

// substrates holds the three drivers of the shared station store over one
// overlay: the sequential directory, the discrete-event simulator and the
// goroutine runtime.
type substrates struct {
	dir *core.Directory
	eng *sim.Engine
	ms  *sim.MOTSim
	tr  *Tracker
}

func newSubstrates(t *testing.T, g *graph.Graph, offset int) substrates {
	t.Helper()
	hs, err := hier.Build(g, graph.NewMetric(g), hier.Config{Seed: 1, SpecialParentOffset: offset})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(0)
	ms, err := sim.NewMOT(hs, eng, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, hs)
	t.Cleanup(tr.Stop)
	return substrates{dir: core.New(hs, core.Config{}), eng: eng, ms: ms, tr: tr}
}

// TestDifferentialCoreSimRuntime replays one seeded fault-free stream of
// moves and queries on core, on sim (each op issued only after the
// previous one drained, no period gating) and on the runtime run
// sequentially. Every answer must equal the ground truth, the per-op move
// and query costs must agree across the three substrates, and the shared
// invariant check must pass on all three at the end.
func TestDifferentialCoreSimRuntime(t *testing.T) {
	const objects, ops = 6, 2000
	for _, offset := range []int{-1, 2} {
		t.Run(fmt.Sprintf("offset=%d", offset), func(t *testing.T) {
			g := graph.Grid(8, 8)
			s := newSubstrates(t, g, offset)
			rng := rand.New(rand.NewSource(1))
			loc := make([]graph.NodeID, objects)
			for o := range loc {
				loc[o] = graph.NodeID(rng.Intn(g.N()))
				id := core.ObjectID(o)
				if err := s.dir.Publish(id, loc[o]); err != nil {
					t.Fatal(err)
				}
				if err := s.ms.Publish(id, loc[o]); err != nil {
					t.Fatal(err)
				}
				if err := s.tr.Publish(id, loc[o]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < ops; i++ {
				o := rng.Intn(objects)
				id := core.ObjectID(o)
				x := graph.NodeID(rng.Intn(g.N()))
				if rng.Intn(2) == 0 {
					loc[o] = x
					costs := s.move(t, id, x)
					if costs[0] != costs[1] || costs[0] != costs[2] {
						t.Fatalf("op %d: move of %d to %d costs core/sim/runtime %v", i, o, x, costs)
					}
					continue
				}
				answers, costs := s.query(t, x, id)
				for k, got := range answers {
					if got != loc[o] {
						t.Fatalf("op %d: query for %d from %d: substrate %d answered %d, location %d", i, o, x, k, got, loc[o])
					}
				}
				if costs[0] != costs[1] || costs[0] != costs[2] {
					t.Fatalf("op %d: query for %d from %d costs core/sim/runtime %v", i, o, x, costs)
				}
			}
			for o := range loc {
				id := core.ObjectID(o)
				for k, at := range []func(core.ObjectID) (graph.NodeID, bool){s.dir.Location, s.ms.Location, s.tr.Location} {
					if got, ok := at(id); !ok || got != loc[o] {
						t.Fatalf("substrate %d: Location(%d) = %d, %v; want %d", k, o, got, ok, loc[o])
					}
				}
			}
			for k, check := range []func() error{s.dir.CheckInvariants, s.ms.CheckInvariants, s.tr.CheckInvariants} {
				if err := check(); err != nil {
					t.Fatalf("substrate %d: %v", k, err)
				}
			}
		})
	}
}

// move applies one move on every substrate and returns the cost each
// metered for it.
func (s substrates) move(t *testing.T, o core.ObjectID, to graph.NodeID) [3]float64 {
	t.Helper()
	var c [3]float64
	before := s.dir.Meter().MaintCost
	if err := s.dir.Move(o, to); err != nil {
		t.Fatal(err)
	}
	c[0] = s.dir.Meter().MaintCost - before
	before = s.ms.Meter().MaintCost
	if err := s.ms.IssueMove(o, to, s.eng.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.eng.Run(); err != nil {
		t.Fatal(err)
	}
	c[1] = s.ms.Meter().MaintCost - before
	before = s.tr.Cost()
	if err := s.tr.Move(o, to); err != nil {
		t.Fatal(err)
	}
	c[2] = s.tr.Cost() - before
	return c
}

// query runs one query on every substrate and returns each answer and
// cost.
func (s substrates) query(t *testing.T, from graph.NodeID, o core.ObjectID) ([3]graph.NodeID, [3]float64) {
	t.Helper()
	var a [3]graph.NodeID
	var c [3]float64
	var err error
	if a[0], c[0], err = s.dir.Query(from, o); err != nil {
		t.Fatal(err)
	}
	done := len(s.ms.Results())
	if err := s.ms.IssueQuery(from, o, s.eng.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.eng.Run(); err != nil {
		t.Fatal(err)
	}
	res := s.ms.Results()
	if len(res) != done+1 {
		t.Fatalf("sim query for %d from %d did not complete", o, from)
	}
	a[1], c[1] = res[done].Found, res[done].Cost
	if a[2], c[2], err = s.tr.Query(from, o); err != nil {
		t.Fatal(err)
	}
	return a, c
}

// All three substrates classify client faults with the core sentinels.
func TestClientFaultsClassifiedAlike(t *testing.T) {
	s := newSubstrates(t, graph.Grid(4, 4), 2)
	publishes := []func(core.ObjectID, graph.NodeID) error{s.dir.Publish, s.ms.Publish, s.tr.Publish}
	moves := []func(core.ObjectID, graph.NodeID) error{
		s.dir.Move,
		func(o core.ObjectID, to graph.NodeID) error { return s.ms.IssueMove(o, to, 0) },
		s.tr.Move,
	}
	queries := []func(graph.NodeID, core.ObjectID) error{
		func(from graph.NodeID, o core.ObjectID) error { _, _, err := s.dir.Query(from, o); return err },
		func(from graph.NodeID, o core.ObjectID) error { return s.ms.IssueQuery(from, o, 0) },
		func(from graph.NodeID, o core.ObjectID) error { _, _, err := s.tr.Query(from, o); return err },
	}
	for k := range publishes {
		if err := publishes[k](1, 3); err != nil {
			t.Fatal(err)
		}
		if err := publishes[k](1, 5); !errors.Is(err, core.ErrAlreadyPublished) {
			t.Errorf("substrate %d: duplicate publish: %v", k, err)
		}
		if err := moves[k](9, 5); !errors.Is(err, core.ErrNotPublished) {
			t.Errorf("substrate %d: move of unpublished: %v", k, err)
		}
		if err := queries[k](0, 9); !errors.Is(err, core.ErrNotPublished) {
			t.Errorf("substrate %d: query of unpublished: %v", k, err)
		}
	}
	if err := s.ms.IssueMove(9, 5, 0); err.Error() != "sim: object 9 not published" {
		t.Errorf("sim message changed: %q", err)
	}
	if err := s.ms.Publish(1, 5); err.Error() != "sim: object 1 already published" {
		t.Errorf("sim message changed: %q", err)
	}
}
