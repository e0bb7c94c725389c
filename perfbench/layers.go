package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/runtime"
	"repro/internal/runtime/track"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The traced layer replay. A traced run replays a prefix of its
// workload's op stream sequentially through each layer's public API, on
// the workload's own topology, with a span around every call. The
// replay is sequential, so MemStats deltas attribute allocations to the
// layer's ops.

// layerInput is one workload's topology and op prefix.
type layerInput struct {
	nodes    int
	hierCfg  hier.Config
	coreCfg  func(*hier.Hierarchy) core.Config
	initial  []int
	ops      []Op // core replays all of them
	replay   []Op // the other layers replay these, a subset of ops in order
	serveCfg serve.Config
	seed     int64
}

// replayLayers runs every layer replay and fills res.
func replayLayers(in layerInput, res map[string]float64, tracer *Tracer) error {
	start := now()
	g, dm := buildSubstrate(in.nodes)
	res["graph.build_s"] = since(start).Seconds()
	tracer.Record("graph.build", 0, start, now())

	start = now()
	hs, err := hier.Build(g, dm, in.hierCfg)
	if err != nil {
		return fmt.Errorf("hier.Build: %w", err)
	}
	res["hier.build_s"] = since(start).Seconds()
	tracer.Record("hier.build", 0, start, now())

	res["graph.dist_ns"] = replayGraph(dm, in.initial, in.replay)
	if err := replayCoreLayer(hs, in, res, tracer); err != nil {
		return err
	}
	if err := replaySim(hs, in.initial, in.replay, res, tracer); err != nil {
		return err
	}
	if err := replayRuntime(g, hs, in.initial, in.replay, res, tracer); err != nil {
		return err
	}
	if err := replayDynamics(g, dm, in, res); err != nil {
		return err
	}
	return replayServe(in, in.replay, res, tracer)
}

// expectations walks ops from initial positions and returns, per op,
// the two endpoints of its optimal path: (old, new) for a move and
// (from, proxy) for a query.
func expectations(initial []int, ops []Op) [][2]int32 {
	pos := make([]int32, len(initial))
	for o, at := range initial {
		pos[o] = int32(at)
	}
	pairs := make([][2]int32, len(ops))
	for i, op := range ops {
		if op.Kind == OpMove {
			pairs[i] = [2]int32{pos[op.Obj], int32(op.Node)}
			pos[op.Obj] = int32(op.Node)
		} else {
			pairs[i] = [2]int32{int32(op.Node), pos[op.Obj]}
		}
	}
	return pairs
}

// replayGraph times the distance read each op's optimum needs: the
// median over five passes of ns per read.
func replayGraph(dm graph.DistanceOracle, initial []int, ops []Op) float64 {
	pairs := expectations(initial, ops)
	var perRead []float64
	var sink float64
	for pass := 0; pass < 5; pass++ {
		start := now()
		for _, p := range pairs {
			sink += dm.Dist(graph.NodeID(p[0]), graph.NodeID(p[1]))
		}
		perRead = append(perRead, float64(since(start).Nanoseconds())/float64(len(pairs)))
	}
	if sink < 0 {
		panic("negative distance")
	}
	return median(perRead)
}

// timedOps replays ops through do, recording each call's time under
// the layer's span names, and returns mean ns per move and per query
// plus mallocs per op.
func timedOps(layer string, ops []Op, tracer *Tracer, do func(i int, op Op) error) (moveNs, queryNs, allocs float64, err error) {
	var moveT, queryT time.Duration
	moves, queries := 0, 0
	mem := startMem()
	for i, op := range ops {
		start := now()
		if err := do(i, op); err != nil {
			return 0, 0, 0, fmt.Errorf("%s op %d (%s object %d node %d): %w", layer, i, op.Kind, op.Obj, op.Node, err)
		}
		stop := now()
		if op.Kind == OpMove {
			moveT += stop.Sub(start)
			moves++
			tracer.Record(layer+".move", int64(i)+1, start, stop)
		} else {
			queryT += stop.Sub(start)
			queries++
			tracer.Record(layer+".query", int64(i)+1, start, stop)
		}
	}
	mallocs, _, _ := mem.end()
	return perOp(moveT, moves), perOp(queryT, queries), float64(mallocs) / float64(len(ops)), nil
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// wrongAnswer reports a query answered with another proxy than the
// object's true position.
func wrongAnswer(got graph.NodeID, want int32) error {
	if int32(got) != want {
		return fmt.Errorf("located at %d, want %d", got, want)
	}
	return nil
}

func replayCoreLayer(hs *hier.Hierarchy, in layerInput, res map[string]float64, tracer *Tracer) error {
	d := core.New(hs, in.coreCfg(hs))
	for o, at := range in.initial {
		if err := d.Publish(core.ObjectID(o), graph.NodeID(at)); err != nil {
			return fmt.Errorf("core publish %d: %w", o, err)
		}
	}
	want := expectations(in.initial, in.ops)
	mv, q, allocs, err := timedOps("core", in.ops, tracer, func(i int, op Op) error {
		if op.Kind == OpMove {
			return d.Move(core.ObjectID(op.Obj), graph.NodeID(op.Node))
		}
		loc, _, err := d.Query(graph.NodeID(op.Node), core.ObjectID(op.Obj))
		if err != nil {
			return err
		}
		return wrongAnswer(loc, want[i][1])
	})
	if err != nil {
		return err
	}
	meter := d.Meter()
	res["core.move_ns"], res["core.query_ns"], res["core.allocs_per_op"] = mv, q, allocs
	res["core.maint_cost_ratio"], res["core.query_cost_ratio"] = meter.MaintMeanRatio(), meter.QueryMeanRatio()
	return nil
}

// replaySim drives the concurrent simulator one op at a time: each op
// is issued at the current simulated time and run to quiescence.
func replaySim(hs *hier.Hierarchy, initial []int, ops []Op, res map[string]float64, tracer *Tracer) error {
	eng := sim.NewEngine(0)
	s, err := sim.NewMOT(hs, eng, sim.Config{})
	if err != nil {
		return fmt.Errorf("sim.NewMOT: %w", err)
	}
	for o, at := range initial {
		if err := s.Publish(core.ObjectID(o), graph.NodeID(at)); err != nil {
			return fmt.Errorf("sim publish %d: %w", o, err)
		}
	}
	if err := eng.Run(); err != nil {
		return err
	}
	want := expectations(initial, ops)
	steps := eng.Steps()
	var total time.Duration
	for i, op := range ops {
		start := now()
		if op.Kind == OpMove {
			err = s.IssueMove(core.ObjectID(op.Obj), graph.NodeID(op.Node), eng.Now())
		} else {
			err = s.IssueQuery(graph.NodeID(op.Node), core.ObjectID(op.Obj), eng.Now())
		}
		if err == nil {
			err = eng.Run()
		}
		stop := now()
		if err != nil {
			return fmt.Errorf("sim op %d: %w", i, err)
		}
		total += stop.Sub(start)
		tracer.Record("sim."+op.Kind.String(), int64(i)+1, start, stop)
		if op.Kind == OpQuery {
			r := s.Results()
			if err := wrongAnswer(r[len(r)-1].Found, want[i][1]); err != nil {
				return fmt.Errorf("sim op %d: %w", i, err)
			}
		}
	}
	if errs := s.Errors(); len(errs) > 0 {
		return fmt.Errorf("sim: %d op errors, first: %w", len(errs), errs[0])
	}
	res["sim.op_ns"] = perOp(total, len(ops))
	res["sim.events_per_op"] = float64(eng.Steps()-steps) / float64(len(ops))
	return nil
}

func replayRuntime(g *graph.Graph, hs *hier.Hierarchy, initial []int, ops []Op, res map[string]float64, tracer *Tracer) error {
	before := goruntime.NumGoroutine()
	start := now()
	tr := runtime.New(g, hs)
	res["runtime.start_s"] = since(start).Seconds()
	res["runtime.goroutines"] = float64(goruntime.NumGoroutine() - before)
	defer tr.Stop()
	for o, at := range initial {
		if err := tr.Publish(core.ObjectID(o), graph.NodeID(at)); err != nil {
			return fmt.Errorf("runtime publish %d: %w", o, err)
		}
	}
	want := expectations(initial, ops)
	mv, q, allocs, err := timedOps("runtime", ops, tracer, func(i int, op Op) error {
		if op.Kind == OpMove {
			return tr.Move(core.ObjectID(op.Obj), graph.NodeID(op.Node))
		}
		loc, _, err := tr.Query(graph.NodeID(op.Node), core.ObjectID(op.Obj))
		if err != nil {
			return err
		}
		return wrongAnswer(loc, want[i][1])
	})
	if err != nil {
		return err
	}
	res["runtime.move_ns"], res["runtime.query_ns"], res["runtime.allocs_per_op"] = mv, q, allocs
	return nil
}

// dynamicsVictims is how many sensors the churn replay fails and
// recovers.
const dynamicsVictims = 2

// replayDynamics fails and then recovers a few seeded sensors on the
// churn engine, once with local repair and once rebuilding the overlay
// per event; the ratio of their wall times is what local repair saves.
func replayDynamics(g *graph.Graph, dm graph.DistanceOracle, in layerInput, res map[string]float64) error {
	r := rng{s: uint64(in.seed) ^ 0xd1b54a32d192ed03}
	var victims []graph.NodeID
	for len(victims) < dynamicsVictims {
		v := graph.NodeID(r.intn(g.N()))
		dup := false
		for _, u := range victims {
			dup = dup || u == v
		}
		if !dup {
			victims = append(victims, v)
		}
	}
	run := func(rebuild bool) (fail, rec time.Duration, err error) {
		e, err := dynamics.New(g, dm, dynamics.Config{Hier: in.hierCfg, RebuildEachEvent: rebuild})
		if err != nil {
			return 0, 0, fmt.Errorf("dynamics.New: %w", err)
		}
		for o, at := range in.initial {
			if err := e.Directory().Publish(core.ObjectID(o), graph.NodeID(at)); err != nil {
				return 0, 0, fmt.Errorf("dynamics publish %d: %w", o, err)
			}
		}
		for _, v := range victims {
			start := now()
			if err := e.Fail(v); err != nil {
				return 0, 0, fmt.Errorf("dynamics fail %d: %w", v, err)
			}
			fail += since(start)
		}
		for _, v := range victims {
			start := now()
			if err := e.Recover(v); err != nil {
				return 0, 0, fmt.Errorf("dynamics recover %d: %w", v, err)
			}
			rec += since(start)
		}
		return fail, rec, e.Directory().CheckInvariants()
	}
	fail, rec, err := run(false)
	if err != nil {
		return err
	}
	rebuildFail, rebuildRec, err := run(true)
	if err != nil {
		return fmt.Errorf("rebuild mode: %w", err)
	}
	res["dynamics.fail_ns"] = perOp(fail, dynamicsVictims)
	res["dynamics.recover_ns"] = perOp(rec, dynamicsVictims)
	res["dynamics.repair_rebuild_ratio"] = float64(fail+rec) / float64(rebuildFail+rebuildRec)
	return nil
}

// replayServe replays ops through a fresh server twice: into
// Handler().ServeHTTP with a recorder (no socket), then over one
// keep-alive loopback connection, on a disjoint object range.
func replayServe(in layerInput, ops []Op, res map[string]float64, tracer *Tracer) error {
	srv, err := serve.New(in.serveCfg)
	if err != nil {
		return fmt.Errorf("serve.New: %w", err)
	}
	// Shutdown is idempotent; this one covers the early returns.
	defer srv.Shutdown(context.Background())
	objects := len(in.initial)
	want := expectations(in.initial, ops)

	// Handler replay, objects [0, objects).
	h := srv.Handler()
	serveHTTP := func(req *http.Request) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	for o, at := range in.initial {
		code, body := serveHTTP(httptest.NewRequest(http.MethodPost, "/v1/publish", bytes.NewReader(publishBody(o, at))))
		if err := checkStatus(code, body); err != nil {
			return fmt.Errorf("handler publish %d: %w", o, err)
		}
	}
	if err := replayHandler(h, ops, want, res, tracer); err != nil {
		return err
	}

	// HTTP replay, objects [objects, 2*objects).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	var bg track.Group
	bg.Go(func() { _ = srv.Serve(ln) })
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer func() {
		tr.CloseIdleConnections()
		_ = srv.Shutdown(context.Background())
		bg.Wait()
	}()
	c := &client{hc: &http.Client{Transport: tr}, tr: tr, base: "http://" + ln.Addr().String(), acked: make([]int32, 2*objects)}
	for o, at := range in.initial {
		c.acked[objects+o] = int32(at)
		status, body, err := c.post("/v1/publish", publishBody(objects+o, at))
		if err == nil {
			err = checkStatus(status, body)
		}
		if err != nil {
			return fmt.Errorf("http publish %d: %w", objects+o, err)
		}
	}
	sampler := startQueueSampler(srv)
	mv, q, _, err := timedOps("http", ops, tracer, func(i int, op Op) error {
		op.Obj += objects
		if op.Kind == OpMove {
			return c.doMove(op)
		}
		return c.doQuery(op, false)
	})
	depth := sampler.stop()
	if err != nil {
		return err
	}
	res["http.move_ns"], res["http.query_ns"] = mv, q
	srvRes := serverView(srv)
	srvRes.queueMax, srvRes.coalesced, srvRes.moves = depth, c.coalesced, countMoves(ops)
	srvRes.set(res)
	return nil
}

// replayHandler drives ServeHTTP directly. Requests and recorders are
// built in chunks ahead of the timed calls, so the MemStats delta around
// each chunk counts only the server's allocations: the handler's own,
// the drain loop's and the shard tracker's.
func replayHandler(h http.Handler, ops []Op, want [][2]int32, res map[string]float64, tracer *Tracer) error {
	const chunk = 512
	var moveT, queryT time.Duration
	var mallocs uint64
	moves := 0
	reqs := make([]*http.Request, 0, chunk)
	recs := make([]*httptest.ResponseRecorder, 0, chunk)
	for lo := 0; lo < len(ops); lo += chunk {
		hi := min(lo+chunk, len(ops))
		reqs, recs = reqs[:0], recs[:0]
		for _, op := range ops[lo:hi] {
			var req *http.Request
			if op.Kind == OpMove {
				req = httptest.NewRequest(http.MethodPost, "/v1/move", bytes.NewReader(moveBody(op.Obj, op.Node)))
			} else {
				req = httptest.NewRequest(http.MethodGet, "/v1/query/"+strconv.Itoa(op.Obj)+"?from="+strconv.Itoa(op.Node), nil)
			}
			reqs = append(reqs, req)
			recs = append(recs, httptest.NewRecorder())
		}
		mem := startMem()
		for k, op := range ops[lo:hi] {
			start := now()
			h.ServeHTTP(recs[k], reqs[k])
			stop := now()
			if op.Kind == OpMove {
				moveT += stop.Sub(start)
				moves++
			} else {
				queryT += stop.Sub(start)
			}
			tracer.Record("serve."+op.Kind.String(), int64(lo+k)+1, start, stop)
		}
		m, _, _ := mem.end()
		mallocs += m
		for k, op := range ops[lo:hi] {
			code, body := recs[k].Code, recs[k].Body.Bytes()
			var err error
			if op.Kind == OpMove {
				_, err = checkMove(code, body, op.Obj, op.Node)
			} else {
				_, err = checkQuery(code, body, op.Obj, int(want[lo+k][1]))
			}
			if err != nil {
				return fmt.Errorf("handler op %d: %w", lo+k, err)
			}
		}
	}
	res["serve.move_ns"] = perOp(moveT, moves)
	res["serve.query_ns"] = perOp(queryT, len(ops)-moves)
	res["serve.allocs_per_req"] = float64(mallocs) / float64(len(ops))
	return nil
}

func publishBody(o, at int) []byte {
	return []byte(`{"object":` + strconv.Itoa(o) + `,"node":` + strconv.Itoa(at) + `}`)
}

func moveBody(o, to int) []byte {
	return []byte(`{"object":` + strconv.Itoa(o) + `,"to":` + strconv.Itoa(to) + `}`)
}

func countMoves(ops []Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == OpMove {
			n++
		}
	}
	return n
}
