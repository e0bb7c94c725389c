package hier

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// buildGolden pins Fingerprint and Rho of every TestParallelBuildIdentical
// build, so the hierarchy cannot drift between commits either, not just
// between worker counts. grid10k-oracle/serve is the overlay motserve
// builds at its default size (NearSquareGrid(10000), oracle seed 1,
// Config{Seed: 1}).
var buildGolden = map[string]struct {
	fp  uint64
	rho float64
}{
	"grid32-lazy/luby":            {0xd37d8228a7835234, 1.8693166301505384},
	"grid32-lazy/serve":           {0x2a305caf460c8de6, 1.8693166301505384},
	"grid32-lazy/incremental":     {0x5399ea00d3c114fd, 1.8693166301505384},
	"grid32-lazy/excluding":       {0xc967fca4d5326ad3, 1.8693166301505384},
	"rgg300-weighted/luby":        {0xaf76b0c9899686b4, 3.807354922057604},
	"rgg300-weighted/serve":       {0x74e6f3512647bf, 3.807354922057604},
	"rgg300-weighted/incremental": {0xac70a0e2d945806a, 3.807354922057604},
	"rgg300-weighted/excluding":   {0xa6151f9d6c7370db, 3.807354922057604},
	"grid32-oracle/luby":          {0xd37d8228a7835234, 1.8693166301505384},
	"grid32-oracle/serve":         {0x2a305caf460c8de6, 1.8693166301505384},
	"grid32-oracle/incremental":   {0x5399ea00d3c114fd, 1.8693166301505384},
	"grid32-oracle/excluding":     {0xc967fca4d5326ad3, 1.8693166301505384},
	"grid10k-oracle/luby":         {0xb13b9e157740c0b6, 1.954964632270652},
	"grid10k-oracle/serve":        {0x8d777c115729c384, 1.954964632270652},
}

// TestParallelBuildIdentical pins the striped build's contract: the
// hierarchy built on one worker and on four is the same structure, with
// the same doubling estimate, both equal to buildGolden, and the
// four-worker build validates. The lazy-metric inputs fill their distance
// rows from several workers at once; the oracle inputs share one pooled
// Near scratch. The 10k-node oracle input runs only the Luby builds
// motserve uses, and not under -short or -race, to keep the test within a
// few seconds.
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
		g := graph.NearSquareGrid(10000)
		o := oracle(g)
		inputs = append(inputs, input{"grid10k-oracle", g, func(*graph.Graph) graph.DistanceOracle { return o }, true})
	}
	builds := []struct {
		name     string
		cfg      Config
		excluded []graph.NodeID
	}{
		{"luby", Config{Seed: 3, UseParentSets: true}, nil},
		{"serve", Config{Seed: 1}, nil},
		{"incremental", Config{Seed: 3, Incremental: true}, nil},
		{"excluding", Config{Seed: 3, UseParentSets: true, Incremental: true}, []graph.NodeID{1, 17, 40}},
	}
	for _, in := range inputs {
		for _, b := range builds {
			if in.lubyOnly && b.cfg.Incremental {
				continue
			}
			name := in.name + "/" + b.name
			build := func(procs int) (uint64, float64) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				hs, err := BuildExcluding(in.g, in.oracle(in.g), b.cfg, b.excluded)
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
				}
				if procs > 1 {
					if err := hs.Validate(); err != nil {
						t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
					}
				}
				return hs.Fingerprint(), hs.Rho()
			}
			fp1, rho1 := build(1)
			fp4, rho4 := build(4)
			if fp1 != fp4 {
				t.Errorf("%s: fingerprint %#x at GOMAXPROCS=1, %#x at 4", name, fp1, fp4)
			}
			if rho1 != rho4 {
				t.Errorf("%s: rho %v at GOMAXPROCS=1, %v at 4", name, rho1, rho4)
			}
			if want := buildGolden[name]; fp1 != want.fp || rho1 != want.rho {
				t.Errorf("%s: fingerprint %#x rho %v, golden %#x rho %v", name, fp1, rho1, want.fp, want.rho)
			}
		}
	}
}
