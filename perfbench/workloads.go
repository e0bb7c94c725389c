package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/lb"
	"repro/internal/mobility"
	"repro/internal/serve"
)

// workload runs one named benchmark input.
type workload func(w io.Writer, opt options) (*runOutcome, error)

// layerPrefix is how many ops of the stream the traced run replays
// through each layer.
const layerPrefix = 20000

var (
	lookup256 = serveSpec{
		Nodes:        256,
		Stream:       StreamSpec{Objects: 4096, QueryShare: 0.8, Mobility: RandomWalk},
		Shards:       2,
		Clients:      2,
		OpsPerSecond: 20000,
		Setups:       21,
	}
	track10k = serveSpec{
		Nodes:        10000,
		Stream:       StreamSpec{Objects: 1024, QueryShare: 0.1, Mobility: RandomWaypoint},
		Shards:       2,
		Clients:      2,
		OpsPerSecond: 10000,
		Setups:       3,
	}
)

var workloads = map[string]workload{
	"lookup-256": func(w io.Writer, opt options) (*runOutcome, error) { return runServeWorkload(w, lookup256, opt) },
	"track-10k":  func(w io.Writer, opt options) (*runOutcome, error) { return runServeWorkload(w, track10k, opt) },
	"reproduce":  runReproduceWorkload,
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func withDims(spec serveSpec) serveSpec {
	spec.Stream.W, spec.Stream.H = gridDims(spec.Nodes)
	return spec
}

func runServeWorkload(w io.Writer, spec serveSpec, opt options) (*runOutcome, error) {
	spec = withDims(spec)
	var tracer *Tracer
	if opt.trace {
		tracer = newTracer()
	}
	r, err := runServe(spec, opt.seed, opt.seconds, tracer)
	if err != nil {
		return nil, err
	}
	out := &runOutcome{
		values:    map[string]float64{},
		samples:   map[string]int{},
		attempted: r.attempted,
		failed:    r.failed,
		firstErr:  r.firstErr,
		spans:     tracer,
	}
	fmt.Fprintf(w, "setup_s samples %v\n", r.setupS)
	printLatency(w, "move (pooled)", r.move)
	printLatency(w, "query (pooled)", r.query)
	fmt.Fprintf(w, "segments: %d; ops_per_s and each p50/p90 are the median over segments\n", segments)
	fmt.Fprintf(w, "gc: %d cycles, %.3f ms pause over the measured phase\n", r.gcCycles, r.gcPauseMs)
	if !opt.trace {
		v := out.values
		v["setup_s"] = median(append([]float64(nil), r.setupS...))
		v["ops_per_s"] = r.reqPerS
		v["move_p50_us"], v["move_p90_us"] = r.moveP50, r.moveP90
		v["query_p50_us"], v["query_p90_us"] = r.queryP50, r.queryP90
		v["peak_rss_mb"] = r.peakRSS
		v["query_cost_ratio"] = r.queryRatio
		out.samples["setup_s"] = len(r.setupS)
		out.samples["ops_per_s"] = segments
		out.samples["move_p50_us"], out.samples["move_p90_us"] = r.move.N, r.move.N
		out.samples["query_p50_us"], out.samples["query_p90_us"] = r.query.N, r.query.N
		out.samples["query_cost_ratio"] = r.queryRatioN
		return out, nil
	}

	s := NewStream(spec.Stream, opt.seed)
	in := layerInput{
		nodes:    spec.Nodes,
		hierCfg:  hier.Config{Seed: serverSeed},
		coreCfg:  func(*hier.Hierarchy) core.Config { return core.Config{} },
		serveCfg: spec.config(),
		seed:     opt.seed,
	}
	for o := 0; o < spec.Stream.Objects; o++ {
		in.initial = append(in.initial, s.Pos(o))
	}
	for i := 0; i < layerPrefix; i++ {
		in.ops = append(in.ops, s.Next())
	}
	in.replay = in.ops
	if err := traceLayers(in, out); err != nil {
		return nil, err
	}
	// The serve-side figures come from the closed-loop phase, not the
	// sequential replay.
	v := out.values
	r.server.set(v)
	v["gc.cycles"], v["gc.pause_ms"] = float64(r.gcCycles), r.gcPauseMs
	v["trace.overhead_pct"] = r.overheadPct
	printShares(w, v)
	return out, nil
}

// traceLayers runs the layer replay and one traced harness sweep,
// adding their metrics and op counts to out.
func traceLayers(in layerInput, out *runOutcome) error {
	res := map[string]float64{}
	if err := replayLayers(in, res, out.spans); err != nil {
		out.failed++
		return err
	}
	out.attempted += len(in.ops) + 4*len(in.replay)
	for k, v := range res {
		out.values[k] = v
	}
	if _, ok := out.values["experiments.onebyone_s"]; ok {
		return nil
	}
	// The harness has no serve path; serve workloads time the reproduce
	// sweep so every traced run measures the experiments layer.
	sw, err := runSweep(out.spans)
	if err != nil {
		return err
	}
	out.attempted += sw.ops
	if err := checkTables(sw.tables()); err != nil {
		out.failed++
		out.firstErr = err
	}
	setParts(out.values, sw)
	return nil
}

func setParts(v map[string]float64, sw *sweep) {
	v["experiments.onebyone_s"] = sw.parts[0].Seconds()
	v["experiments.concurrent_s"] = sw.parts[1].Seconds()
	v["experiments.churn_s"] = sw.parts[2].Seconds()
}

func runReproduceWorkload(w io.Writer, opt options) (*runOutcome, error) {
	var tracer *Tracer
	if opt.trace {
		tracer = newTracer()
	}
	r, err := runReproduce(opt.seconds, tracer)
	if err != nil {
		return nil, err
	}
	out := &runOutcome{
		values:    map[string]float64{},
		samples:   map[string]int{},
		attempted: r.attempted,
		failed:    r.failed,
		firstErr:  r.firstErr,
		spans:     tracer,
	}
	fmt.Fprintf(w, "%d sweeps, each checked against expected.txt\n", len(r.sweeps))
	for i, s := range r.sweeps {
		fmt.Fprintf(w, "sweep %d: %d ops in %.3fs (one-by-one %.3fs, concurrent %.3fs, churn %.3fs)\n",
			i, s.ops, s.wall().Seconds(), s.parts[0].Seconds(), s.parts[1].Seconds(), s.parts[2].Seconds())
	}
	fmt.Fprintf(w, "setup_s samples %v\n", r.setupS)
	fmt.Fprintf(w, "MOT at %d nodes, one-by-one: maint_cost_ratio %.6f, query_cost_ratio %.6f\n",
		reproSizes[len(reproSizes)-1], r.maintRatio, r.queryRatio)
	printLatency(w, "core move (pooled)", r.move)
	printLatency(w, "core query (pooled)", r.query)
	fmt.Fprintf(w, "core replays: %d after each sweep; each p50/p90 is the median over replays\n", replaysPerPass)
	if !opt.trace {
		v := out.values
		v["setup_s"] = median(append([]float64(nil), r.setupS...))
		v["ops_per_s"] = median(append([]float64(nil), r.opsPerS...))
		v["move_p50_us"], v["move_p90_us"] = r.moveP50, r.moveP90
		v["query_p50_us"], v["query_p90_us"] = r.queryP50, r.queryP90
		v["peak_rss_mb"] = r.peakRSS
		v["query_cost_ratio"] = r.queryRatio
		out.samples["setup_s"] = len(r.setupS)
		out.samples["ops_per_s"] = len(r.opsPerS)
		out.samples["move_p50_us"], out.samples["move_p90_us"] = r.move.N, r.move.N
		out.samples["query_p50_us"], out.samples["query_p90_us"] = r.query.N, r.query.N
		out.samples["query_cost_ratio"] = reproQueries
		out.samples["peak_rss_mb"] = len(r.sweeps)
		return out, nil
	}

	cell, err := buildLargestCell()
	if err != nil {
		return nil, err
	}
	n := reproSizes[len(reproSizes)-1]
	in := layerInput{
		nodes:    n,
		hierCfg:  hier.Config{Seed: mobility.StreamSeed(reproBase, n, 0), SpecialParentOffset: 2},
		coreCfg:  func(hs *hier.Hierarchy) core.Config { return core.Config{Placement: lb.New(hs)} },
		serveCfg: serve.Config{Shards: 2, Nodes: n, Seed: serverSeed},
		seed:     opt.seed,
	}
	in.initial, in.ops = cell.ops()
	// The cell issues every move before its queries: the other layers
	// replay the first moves and then every query.
	queries := len(cell.w.Queries)
	moves := len(in.ops) - queries
	in.replay = append(append([]Op(nil), in.ops[:min(moves, layerPrefix-queries)]...), in.ops[moves:]...)
	setParts(out.values, r.sweeps[len(r.sweeps)-1])
	if err := traceLayers(in, out); err != nil {
		return nil, err
	}
	v := out.values
	v["gc.cycles"], v["gc.pause_ms"] = float64(r.gcCycles), r.gcPauseMs
	v["trace.overhead_pct"] = r.overheadPct
	if v["core.maint_cost_ratio"] != r.maintRatio || v["core.query_cost_ratio"] != r.queryRatio {
		out.failed++
		out.firstErr = fmt.Errorf("core layer ratios %v/%v differ from the sweep's %v/%v",
			v["core.maint_cost_ratio"], v["core.query_cost_ratio"], r.maintRatio, r.queryRatio)
	}
	printShares(w, v)
	return out, nil
}

func printLatency(w io.Writer, class string, s Summary) {
	fmt.Fprintf(w, "%s: n=%d p50=%.2fus p90=%.2fus p99=%.2fus max=%.2fus mean=%.2fus\n",
		class, s.N, s.P50, s.P90, s.P99, s.Max, s.Avg)
}

// printShares prints each layer's per-op time as a share of the HTTP
// round trip, and what each layer adds over the one below it.
func printShares(w io.Writer, v map[string]float64) {
	layers := []string{"core", "runtime", "serve", "http"}
	for _, class := range []string{"move", "query"} {
		top := v["http."+class+"_ns"]
		if top == 0 {
			continue
		}
		fmt.Fprintf(w, "layer shares of the %s round trip (%.1f us):\n", class, top/1e3)
		fmt.Fprintf(w, "  %-8s %10.3f us %6.1f%%\n", "graph", v["graph.dist_ns"]/1e3, 100*v["graph.dist_ns"]/top)
		below := 0.0
		for _, l := range layers {
			t := v[l+"."+class+"_ns"]
			fmt.Fprintf(w, "  %-8s %10.3f us %6.1f%%  (adds %.3f us)\n", l, t/1e3, 100*t/top, (t-below)/1e3)
			below = t
		}
	}
}

// gitCommit returns the VCS revision stamped into the binary, or
// "unknown" when it was built outside a git checkout.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources under root, so a run from
// a checkout that is not a git repository still names the code it
// measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
