package hier

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestParallelBuildIdentical pins the striped build's contract: the
// hierarchy built on one worker and on four is the same structure, with
// the same doubling estimate, and the four-worker build validates. The
// lazy-metric inputs fill their distance rows from several workers at
// once; the oracle inputs share one pooled Near scratch. The 10k-node
// oracle input runs only the Luby build motserve uses, and not under
// -short or -race, to keep the test within a few seconds.
func TestParallelBuildIdentical(t *testing.T) {
	type input struct {
		name     string
		g        *graph.Graph
		oracle   func(*graph.Graph) graph.DistanceOracle // called once per build
		lubyOnly bool
	}
	lazy := func(g *graph.Graph) graph.DistanceOracle { return graph.NewMetric(g) }
	oracle := func(g *graph.Graph) graph.DistanceOracle { return graph.NewOracle(g, graph.OracleConfig{Seed: 1}) }
	inputs := []input{
		{"grid32-lazy", graph.Grid(32, 32), lazy, false},
		{"rgg300-weighted", graph.RandomGeometric(300, 10, 1.5, rand.New(rand.NewSource(7))), lazy, false},
		{"grid32-oracle", graph.Grid(32, 32), oracle, false},
	}
	if !testing.Short() && !raceEnabled {
		g := graph.Grid(100, 100)
		o := oracle(g)
		inputs = append(inputs, input{"grid10k-oracle", g, func(*graph.Graph) graph.DistanceOracle { return o }, true})
	}
	builds := []struct {
		name     string
		cfg      Config
		excluded []graph.NodeID
	}{
		{"luby", Config{Seed: 3, UseParentSets: true}, nil},
		{"incremental", Config{Seed: 3, Incremental: true}, nil},
		{"excluding", Config{Seed: 3, UseParentSets: true, Incremental: true}, []graph.NodeID{1, 17, 40}},
	}
	for _, in := range inputs {
		for _, b := range builds {
			if in.lubyOnly && b.cfg.Incremental {
				continue
			}
			build := func(procs int) (uint64, float64) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				hs, err := BuildExcluding(in.g, in.oracle(in.g), b.cfg, b.excluded)
				if err != nil {
					t.Fatalf("%s/%s GOMAXPROCS=%d: %v", in.name, b.name, procs, err)
				}
				if procs > 1 {
					if err := hs.Validate(); err != nil {
						t.Fatalf("%s/%s GOMAXPROCS=%d: %v", in.name, b.name, procs, err)
					}
				}
				return hs.Fingerprint(), hs.Rho()
			}
			fp1, rho1 := build(1)
			fp4, rho4 := build(4)
			if fp1 != fp4 {
				t.Errorf("%s/%s: fingerprint %#x at GOMAXPROCS=1, %#x at 4", in.name, b.name, fp1, fp4)
			}
			if rho1 != rho4 {
				t.Errorf("%s/%s: rho %v at GOMAXPROCS=1, %v at 4", in.name, b.name, rho1, rho4)
			}
		}
	}
}
