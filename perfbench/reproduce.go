package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/lb"
	"repro/internal/mobility"
)

// The reproduce workload drives the paper harness (internal/experiments)
// with no HTTP: one-by-one and concurrent MOT/STUN/Z-DAT cost-ratio
// sweeps with load balancing, then one churn cell. It regenerates one
// fixed set of figures, the harness's default sweep (base seed 0): the
// figures are the workload's output, every run's tables are checked
// against the expected output committed beside this file, and its cost
// ratios repeat exactly from run to run. --seed does not change it.

// reproBase is the harness's base seed.
const reproBase = 0

//go:embed expected.txt
var expectedTables string

// Sweep parameters.
var (
	reproSizes = []int{64, 256, 1024}
)

const (
	reproObjects = 100
	reproMoves   = 200
	reproQueries = 2000
	reproWorkers = 2
	churnSize    = 256
	// sweepSeconds is the nominal length of one sweep and its replays.
	sweepSeconds = 2
	// replaysPerPass is how many times the largest cell is replayed
	// through core after each sweep.
	replaysPerPass = 3
)

func costRatioConfig(concurrent bool) experiments.CostRatioConfig {
	return experiments.CostRatioConfig{
		Sizes:          reproSizes,
		Objects:        reproObjects,
		MovesPerObject: reproMoves,
		Queries:        reproQueries,
		Seeds:          1,
		Concurrent:     concurrent,
		LoadBalance:    true,
		BaseSeed:       reproBase,
		Workers:        reproWorkers,
	}
}

func churnConfig() experiments.ChurnConfig {
	return experiments.ChurnConfig{BaseSeed: reproBase, Size: churnSize, Schedules: 2, Workers: reproWorkers}
}

// sweep is one pass of the harness.
type sweep struct {
	oneByOne, concurrent *experiments.CostRatioResult
	churn                *experiments.ChurnResult
	parts                [3]time.Duration // one-by-one, concurrent, churn
	ops                  int              // directory ops executed
}

func (s *sweep) wall() time.Duration { return s.parts[0] + s.parts[1] + s.parts[2] }

// runSweep runs the harness from a cold substrate cache, so every pass
// pays its substrate builds. Each part starts from a collected heap
// (untimed), so a part's peak memory does not depend on when the
// collector last ran in the part before it.
func runSweep(tracer *Tracer) (*sweep, error) {
	experiments.ResetSubstrateCache()
	s := &sweep{}
	parts := []struct {
		name string
		run  func() error
	}{
		{"experiments.onebyone", func() (err error) {
			s.oneByOne, err = experiments.RunCostRatio(costRatioConfig(false))
			return err
		}},
		{"experiments.concurrent", func() (err error) {
			s.concurrent, err = experiments.RunCostRatio(costRatioConfig(true))
			return err
		}},
		{"experiments.churn", func() (err error) {
			s.churn, err = experiments.RunChurn(churnConfig())
			return err
		}},
	}
	for i, p := range parts {
		debug.FreeOSMemory()
		start := now()
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		end := now()
		s.parts[i] = end.Sub(start)
		tracer.Record(p.name, 0, start, end)
	}

	perCell := reproObjects*reproMoves + reproQueries
	s.ops = 2 * len(reproSizes) * len(experiments.Algorithms) * perCell
	for _, sc := range s.churn.Schedules {
		s.ops += sc.OpsIssued
	}
	return s, nil
}

// tables renders the sweep's deterministic output: the figure tables of
// both sweeps and the churn cell's schedule lines.
func (s *sweep) tables() string {
	var b bytes.Buffer
	for _, part := range []struct {
		name string
		res  *experiments.CostRatioResult
	}{{"one-by-one", s.oneByOne}, {"concurrent", s.concurrent}} {
		fmt.Fprintf(&b, "%s maintenance (mean of per-op ratios)\n", part.name)
		experiments.PrintCostRatio(&b, part.res, false)
		fmt.Fprintf(&b, "%s query (mean of per-op ratios)\n", part.name)
		experiments.PrintCostRatio(&b, part.res, true)
	}
	experiments.PrintChurn(&b, s.churn)
	return b.String()
}

// checkTables compares a sweep's tables with the committed expected
// output.
func checkTables(got string) error {
	if got != expectedTables {
		return fmt.Errorf("tables differ from expected.txt:\n%s", firstDiff(expectedTables, got))
	}
	return nil
}

func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(equal)"
}

// largestCell rebuilds the one-by-one sweep's largest MOT cell exactly
// as the harness does: its grid, metric, workload and load-balanced
// overlay.
type largestCell struct {
	hs *hier.Hierarchy
	w  *mobility.Workload
}

func buildLargestCell() (*largestCell, error) {
	n := reproSizes[len(reproSizes)-1]
	seed := mobility.StreamSeed(reproBase, n, 0)
	g := graph.NearSquareGrid(n)
	m := graph.NewMetric(g)
	m.Precompute(0)
	w, err := mobility.Generate(g, m, mobility.Config{
		Objects: reproObjects, MovesPerObject: reproMoves, Queries: reproQueries, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generating the largest cell: %w", err)
	}
	hs, err := hier.Build(g, m, hier.Config{Seed: seed, SpecialParentOffset: 2})
	if err != nil {
		return nil, fmt.Errorf("building the largest cell's overlay: %w", err)
	}
	return &largestCell{hs: hs, w: w}, nil
}

// ops lists the cell's operations in the harness's order: every move,
// then every query.
func (c *largestCell) ops() (initial []int, ops []Op) {
	for _, at := range c.w.Initial {
		initial = append(initial, int(at))
	}
	for _, mv := range c.w.Moves {
		ops = append(ops, Op{Kind: OpMove, Obj: int(mv.Object), Node: int(mv.To)})
	}
	for _, q := range c.w.Queries {
		ops = append(ops, Op{Kind: OpQuery, Obj: int(q.Object), Node: int(q.From)})
	}
	return initial, ops
}

func (c *largestCell) directory() *core.Directory {
	return core.New(c.hs, core.Config{Placement: lb.New(c.hs)})
}

// buildSubstrates is the reproduce workload's set-up: the grid, frozen
// metric and overlay of every sweep size.
func buildSubstrates() (time.Duration, error) {
	debug.FreeOSMemory()
	start := now()
	for _, n := range reproSizes {
		g := graph.NearSquareGrid(n)
		m := graph.NewMetric(g)
		m.Precompute(0)
		if _, err := hier.Build(g, m, hier.Config{Seed: mobility.StreamSeed(reproBase, n, 0), SpecialParentOffset: 2}); err != nil {
			return 0, fmt.Errorf("building the %d-node overlay: %w", n, err)
		}
	}
	return since(start), nil
}

// reproduceRun is the outcome of one reproduce-workload run.
type reproduceRun struct {
	setupS      []float64
	opsPerS     []float64
	sweeps      []*sweep
	move, query Summary // pooled over the core replays
	// Medians over the core replays.
	moveP50, moveP90, queryP50, queryP90 float64
	maintRatio                           float64
	queryRatio                           float64
	replayMaint                          float64
	replayQuery                          float64
	peakRSS                              float64
	attempted, failed                    int
	firstErr                             error
	gcCycles                             uint32
	gcPauseMs                            float64
	overheadPct                          float64
}

// runReproduce runs the sweep, checks every pass's tables, and after
// each pass replays the largest one-by-one MOT cell through
// core.Directory with per-op timing.
func runReproduce(seconds int, tracer *Tracer) (*reproduceRun, error) {
	res := &reproduceRun{}
	for i := 0; i < 3; i++ {
		d, err := buildSubstrates()
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, d.Seconds())
	}

	// An untraced run makes one pass per sweepSeconds of --seconds (at
	// least three) and reports the median rate; a traced run alternates
	// two untraced and two traced passes, and the difference of their
	// median walls is the tracing overhead. After each pass the largest one-by-one cell is replayed
	// through core replaysPerPass times; the latency figures are medians
	// over all replays, so they sample the whole run rather than one
	// moment of it. The
	// cell is rebuilt for each replay, so it is not live during a sweep.
	// Peak RSS is sampled per pass and the median pass reported: the
	// process-wide high-water mark would be the maximum over passes, and
	// a pass's peak depends on when the collector happens to run.
	passes := max(3, seconds/sweepSeconds)
	if tracer != nil {
		passes = 4
	}
	var moveP50, moveP90, queryP50, queryP90, rss []float64
	move, query := newLatencies(0), newLatencies(0)
	sampler := startRSSSampler()
	defer sampler.stop()
	mem := startMem()
	for i := 0; i < passes; i++ {
		debug.FreeOSMemory()
		if _, err := sampler.take(); err != nil {
			return nil, err
		}
		var tr *Tracer
		if i%2 == 1 {
			tr = tracer
		}
		s, err := runSweep(tr)
		if err != nil {
			return nil, err
		}
		res.sweeps = append(res.sweeps, s)
		res.opsPerS = append(res.opsPerS, float64(s.ops)/s.wall().Seconds())
		res.attempted += s.ops
		if err := checkTables(s.tables()); err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}

		cell, err := buildLargestCell()
		if err != nil {
			return nil, err
		}
		initial, ops := cell.ops()
		for rep := 0; rep < replaysPerPass; rep++ {
			mv, q := newLatencies(len(ops)), newLatencies(len(cell.w.Queries))
			meter, err := replayCore(cell.directory(), initial, ops, mv, q)
			res.attempted += len(ops)
			if err != nil {
				return nil, err
			}
			res.replayMaint, res.replayQuery = meter.MaintMeanRatio(), meter.QueryMeanRatio()
			ms, qs := mv.summary(), q.summary()
			moveP50, moveP90 = append(moveP50, ms.P50), append(moveP90, ms.P90)
			queryP50, queryP90 = append(queryP50, qs.P50), append(queryP90, qs.P90)
			move.merge(mv)
			query.merge(q)
		}
		peak, err := sampler.take()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
	}
	_, res.gcCycles, res.gcPauseMs = mem.end()
	if tracer != nil {
		var plain, traced []float64
		for i, s := range res.sweeps {
			if i%2 == 1 {
				traced = append(traced, s.wall().Seconds())
			} else {
				plain = append(plain, s.wall().Seconds())
			}
		}
		u, t := median(plain), median(traced)
		res.overheadPct = 100 * (t - u) / u
	}
	first := res.sweeps[0].oneByOne
	last := len(first.Sizes) - 1
	res.maintRatio = first.MaintenanceMean[0][last]
	res.queryRatio = first.QueryMean[0][last]
	res.move, res.query = move.summary(), query.summary()
	res.moveP50, res.moveP90 = median(moveP50), median(moveP90)
	res.queryP50, res.queryP90 = median(queryP50), median(queryP90)
	// The replay runs the harness's own cell, so its ratios must equal
	// the sweep's.
	if res.replayMaint != res.maintRatio || res.replayQuery != res.queryRatio {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("core replay ratios maint %v query %v differ from the sweep's %v %v",
				res.replayMaint, res.replayQuery, res.maintRatio, res.queryRatio)
		}
	}
	res.peakRSS = median(rss)
	return res, nil
}

// replayCore publishes every object and replays ops through a
// directory, timing each move and query.
func replayCore(d *core.Directory, initial []int, ops []Op, move, query *Latencies) (core.CostMeter, error) {
	for o, at := range initial {
		if err := d.Publish(core.ObjectID(o), graph.NodeID(at)); err != nil {
			return core.CostMeter{}, fmt.Errorf("core publish %d: %w", o, err)
		}
	}
	for i, op := range ops {
		start := now()
		var err error
		if op.Kind == OpMove {
			err = d.Move(core.ObjectID(op.Obj), graph.NodeID(op.Node))
			move.add(since(start))
		} else {
			_, _, err = d.Query(graph.NodeID(op.Node), core.ObjectID(op.Obj))
			query.add(since(start))
		}
		if err != nil {
			return core.CostMeter{}, fmt.Errorf("core op %d: %w", i, err)
		}
	}
	return d.Meter(), nil
}

// writeExpectedTables regenerates the expected output into path. Run it
// only when a change to the harness's output is intended.
func writeExpectedTables(path string) error {
	s, err := runSweep(nil)
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(s.tables()), 0o644)
}
