package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime/track"
	"repro/internal/serve"
)

// serveSpec describes a motserve workload.
type serveSpec struct {
	Nodes   int
	Stream  StreamSpec
	Shards  int
	Clients int
	// OpsPerSecond sets the measured phase's fixed op count
	// (OpsPerSecond × --seconds); it is a nominal rate, so the phase
	// lasts about --seconds on the reference machine.
	OpsPerSecond int
	// Setups is how many times a run builds the server; setup_s is the
	// median.
	Setups int
}

// serverSeed fixes the overlay: the program under test is the same on
// every run, and only the traffic comes from --seed.
const serverSeed = 1

func gridDims(nodes int) (w, h int) {
	g := graph.NearSquareGrid(nodes)
	pos := g.Position(graph.NodeID(g.N() - 1))
	return int(pos.X) + 1, int(pos.Y) + 1
}

func (s serveSpec) config() serve.Config {
	return serve.Config{Shards: s.Shards, Nodes: s.Nodes, Seed: serverSeed}
}

// queryCost is one answered query, kept for the cost ratio.
type queryCost struct {
	from, loc int32
	cost      float64
}

// client is one closed-loop keep-alive HTTP client owning a disjoint
// object set.
type client struct {
	id    int
	hc    *http.Client
	tr    *http.Transport
	base  string
	cs    *ClientStream
	acked []int32 // last acknowledged position per object (own objects only)

	move, query *Latencies
	costs       []queryCost
	buf         bytes.Buffer
	body        []byte

	attempted, failed, coalesced int
	firstErr                     error
	tracer                       *Tracer
}

// newClient sizes the sample slices for the client's expected share of
// measured ops, with a fifth of headroom.
func newClient(id int, base string, spec serveSpec, seed int64, measured int) *client {
	perClient := float64(measured) / float64(spec.Clients) * 1.2
	queries := int(perClient*spec.Stream.QueryShare) + 64
	moves := int(perClient*(1-spec.Stream.QueryShare)) + 64
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &client{
		id:    id,
		hc:    &http.Client{Transport: tr},
		tr:    tr,
		base:  base,
		cs:    NewClientStream(spec.Stream, seed, id, spec.Clients),
		acked: make([]int32, spec.Stream.Objects),
		move:  newLatencies(moves),
		query: newLatencies(queries),
		costs: make([]queryCost, 0, queries),
	}
	for o := range c.acked {
		c.acked[o] = int32(c.cs.Pos(o))
	}
	return c
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("client %d: %w", c.id, err)
	}
}

// do sends one request and reads the whole reply, so the connection is
// reused.
func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("reading reply: %w", err)
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

// publishAll publishes the client's objects at their initial positions.
func (c *client) publishAll(objects, clients int) {
	for o := 0; o < objects; o++ {
		if Owner(o, clients) != c.id {
			continue
		}
		c.attempted++
		status, body, err := c.post("/v1/publish", publishBody(o, int(c.acked[o])))
		if err == nil {
			err = checkStatus(status, body)
		}
		if err != nil {
			c.fail(fmt.Errorf("publish %d: %w", o, err))
		}
	}
}

// run replays the client's ops up to global index end; timed runs
// record latencies and query costs.
func (c *client) run(end int, timed bool) {
	for {
		op, idx, ok := c.cs.Next(end)
		if !ok {
			return
		}
		c.attempted++
		start := now()
		var err error
		if op.Kind == OpMove {
			err = c.doMove(op)
		} else {
			err = c.doQuery(op, timed)
		}
		stop := now()
		if err != nil {
			c.fail(fmt.Errorf("op %d (%s object %d node %d): %w", idx, op.Kind, op.Obj, op.Node, err))
			continue
		}
		if !timed {
			continue
		}
		if op.Kind == OpMove {
			c.move.add(stop.Sub(start))
			c.tracer.Record("client.move", int64(idx)+1, start, stop)
		} else {
			c.query.add(stop.Sub(start))
			c.tracer.Record("client.query", int64(idx)+1, start, stop)
		}
	}
}

func (c *client) doMove(op Op) error {
	c.body = append(c.body[:0], `{"object":`...)
	c.body = strconv.AppendInt(c.body, int64(op.Obj), 10)
	c.body = append(c.body, `,"to":`...)
	c.body = strconv.AppendInt(c.body, int64(op.Node), 10)
	c.body = append(c.body, '}')
	status, body, err := c.post("/v1/move", c.body)
	if err != nil {
		return err
	}
	coalesced, err := checkMove(status, body, op.Obj, op.Node)
	if err != nil {
		return err
	}
	if coalesced {
		c.coalesced++
	}
	c.acked[op.Obj] = int32(op.Node)
	return nil
}

func (c *client) doQuery(op Op, keepCost bool) error {
	req, err := http.NewRequest(http.MethodGet,
		c.base+"/v1/query/"+strconv.Itoa(op.Obj)+"?from="+strconv.Itoa(op.Node), nil)
	if err != nil {
		return err
	}
	status, body, err := c.do(req)
	if err != nil {
		return err
	}
	want := int(c.acked[op.Obj])
	cost, err := checkQuery(status, body, op.Obj, want)
	if err != nil {
		return err
	}
	if keepCost {
		c.costs = append(c.costs, queryCost{from: int32(op.Node), loc: int32(want), cost: cost})
	}
	return nil
}

// serveRun is the outcome of one serve-workload run.
type serveRun struct {
	setupS      []float64
	move, query Summary // pooled over the measured phase
	// Medians over the measured phase's segments.
	reqPerS, moveP50, moveP90, queryP50, queryP90 float64
	attempted                                     int
	failed                                        int
	firstErr                                      error
	queryRatio                                    float64
	queryRatioN                                   int
	peakRSS                                       float64
	gcCycles                                      uint32
	gcPauseMs                                     float64
	server                                        serverStats
	overheadPct                                   float64
}

// serverStats is the server's own view of a run.
type serverStats struct {
	moveP50Us, queryP50Us float64 // from Server.Snapshot
	rejected              int64
	queueMax              int // sampled during the run
	coalesced, moves      int // coalesced move acks out of all moves
}

// serverView reads the server-side request p50s and the 429 count.
func serverView(srv *serve.Server) serverStats {
	snap := srv.Snapshot()
	st := serverStats{rejected: snap.Rejected}
	for _, op := range snap.Request.Ops {
		switch op.Class {
		case "move":
			st.moveP50Us = float64(op.P50Ns) / 1e3
		case "query":
			st.queryP50Us = float64(op.P50Ns) / 1e3
		}
	}
	return st
}

func (st serverStats) set(v map[string]float64) {
	v["serve.server_move_p50_us"], v["serve.server_query_p50_us"] = st.moveP50Us, st.queryP50Us
	v["serve.queue_depth_max"] = float64(st.queueMax)
	v["serve.coalesced_share"] = float64(st.coalesced) / float64(max(st.moves, 1))
	v["serve.rejected"] = float64(st.rejected)
}

// queueSampler polls a server's per-shard move-queue depth every 2 ms
// and keeps the deepest queue seen.
type queueSampler struct {
	quit    chan struct{}
	g       track.Group
	deepest int
}

func startQueueSampler(srv *serve.Server) *queueSampler {
	qs := &queueSampler{quit: make(chan struct{})}
	qs.g.Go(func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-qs.quit:
				return
			case <-tick.C:
				for _, sh := range srv.Snapshot().ShardStatus {
					qs.deepest = max(qs.deepest, sh.QueueDepth)
				}
			}
		}
	})
	return qs
}

// stop ends the sampler and returns the deepest queue it saw.
func (qs *queueSampler) stop() int {
	close(qs.quit)
	qs.g.Wait()
	return qs.deepest
}

// buildServer builds the server spec.Setups times, keeping the last;
// each build is timed from the serve.New call until it returns.
func buildServer(spec serveSpec) (*serve.Server, []float64, error) {
	var times []float64
	for i := 0; i < spec.Setups; i++ {
		debug.FreeOSMemory()
		start := now()
		srv, err := serve.New(spec.config())
		times = append(times, since(start).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("serve.New: %w", err)
		}
		if i == spec.Setups-1 {
			return srv, times, nil
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			return nil, nil, fmt.Errorf("shutting down setup server: %w", err)
		}
	}
	return nil, nil, fmt.Errorf("no setups configured")
}

// runServe runs a serve workload end to end: set-up, publish, warm-up,
// then the measured closed-loop phase over loopback HTTP, then the
// quiescent location check. With tracer set, spans are recorded in
// every other segment of the measured phase and the server's queue
// depth is sampled.
func runServe(spec serveSpec, seed int64, seconds int, tracer *Tracer) (*serveRun, error) {
	srv, setups, err := buildServer(spec)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listening: %w", err)
	}
	var bg track.Group
	bg.Go(func() { _ = srv.Serve(ln) })
	base := "http://" + ln.Addr().String()

	measured := spec.OpsPerSecond * seconds
	warm := measured / 10
	clients := make([]*client, spec.Clients)
	for i := range clients {
		clients[i] = newClient(i, base, spec, seed, measured)
	}
	res := &serveRun{setupS: setups}
	stop := func() {
		for _, c := range clients {
			c.tr.CloseIdleConnections()
		}
		_ = srv.Shutdown(context.Background())
		bg.Wait()
	}

	parallel := func(fn func(c *client)) time.Duration {
		start := now()
		var g track.Group
		for _, c := range clients {
			g.Go(func() { fn(c) })
		}
		g.Wait()
		return since(start)
	}
	parallel(func(c *client) { c.publishAll(spec.Stream.Objects, spec.Clients) })
	parallel(func(c *client) { c.run(warm, false) })

	mem := startMem()
	var sampler *queueSampler
	if tracer != nil {
		sampler = startQueueSampler(srv)
	}
	segs := measureSegments(clients, parallel, warm, measured, tracer)
	queueMax := 0
	if sampler != nil {
		queueMax = sampler.stop()
	}
	_, res.gcCycles, res.gcPauseMs = mem.end()
	if res.peakRSS, err = peakRSSMB(); err != nil {
		stop()
		return nil, err
	}
	res.reqPerS, res.moveP50, res.moveP90 = segMedian(segs, segStats.rateOf), segMedian(segs, segStats.moveP50), segMedian(segs, segStats.moveP90)
	res.queryP50, res.queryP90 = segMedian(segs, segStats.queryP50), segMedian(segs, segStats.queryP90)
	if tracer != nil {
		var plain, traced []float64
		for _, sg := range segs {
			if sg.traced {
				traced = append(traced, sg.all.P50)
			} else {
				plain = append(plain, sg.all.P50)
			}
		}
		u, t := median(plain), median(traced)
		res.overheadPct = 100 * (t - u) / u
	}

	move, query := newLatencies(0), newLatencies(0)
	var costs []queryCost
	coalesced := 0
	for _, c := range clients {
		move.merge(c.move)
		query.merge(c.query)
		costs = append(costs, c.costs...)
		res.attempted += c.attempted
		res.failed += c.failed
		coalesced += c.coalesced
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	res.move, res.query = move.summary(), query.summary()

	res.server = serverView(srv)
	res.server.queueMax, res.server.coalesced, res.server.moves = queueMax, coalesced, res.move.N

	// Quiescent check: the server's view of every object must equal the
	// stream's ground truth.
	truth := clients[0].cs
	for o := 0; o < spec.Stream.Objects; o++ {
		res.attempted++
		loc, found := srv.Location(core.ObjectID(o))
		if !found || int(loc) != truth.Pos(o) {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("after the run object %d is at %d (found %v), want %d", o, loc, found, truth.Pos(o))
			}
		}
	}
	stop()

	// The cost ratio's optimum is read on the server's distance
	// substrate, rebuilt here after the RSS high-water mark was taken.
	_, dm := buildSubstrate(spec.Nodes)
	res.queryRatio, res.queryRatioN = queryRatio(dm, costs)
	return res, nil
}

// segments is how many consecutive slices the measured phase is cut
// into. Each slice's rate and percentiles are computed on their own and
// a run reports their medians, so a burst of outside load spoils a few
// segments rather than the run's figures.
const segments = 10

// segStats is one segment's figures.
type segStats struct {
	rate        float64
	move, query Summary
	all         Summary // every round trip of the segment
	traced      bool
}

func (s segStats) rateOf() float64   { return s.rate }
func (s segStats) moveP50() float64  { return s.move.P50 }
func (s segStats) moveP90() float64  { return s.move.P90 }
func (s segStats) queryP50() float64 { return s.query.P50 }
func (s segStats) queryP90() float64 { return s.query.P90 }

func segMedian(segs []segStats, f func(segStats) float64) float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = f(s)
	}
	return median(vs)
}

// measureSegments runs the measured op range segment by segment, all
// clients in parallel, with a barrier between segments. A traced run
// records spans in every other segment, so the untraced segments price
// the tracing.
func measureSegments(clients []*client, parallel func(func(*client)) time.Duration, warm, measured int, tracer *Tracer) []segStats {
	segs := make([]segStats, segments)
	for k := range segs {
		segs[k].traced = tracer != nil && k%2 == 1
		// Each client records into its own tracer; the spans are merged
		// into the run's tracer after the segment.
		local := make([]*Tracer, len(clients))
		firstMove := make([]int, len(clients))
		firstQuery := make([]int, len(clients))
		for i, c := range clients {
			if segs[k].traced {
				local[i] = &Tracer{epoch: tracer.epoch}
			}
			c.tracer = local[i]
			firstMove[i], firstQuery[i] = len(c.move.ns), len(c.query.ns)
		}
		wall := parallel(func(c *client) { c.run(warm+measured*(k+1)/segments, true) })
		move, query, all := newLatencies(0), newLatencies(0), newLatencies(0)
		for i, c := range clients {
			move.ns = append(move.ns, c.move.ns[firstMove[i]:]...)
			query.ns = append(query.ns, c.query.ns[firstQuery[i]:]...)
			c.tracer = nil
			if segs[k].traced {
				tracer.spans = append(tracer.spans, local[i].spans...)
			}
		}
		all.merge(move)
		all.merge(query)
		segs[k].move, segs[k].query, segs[k].all = move.summary(), query.summary(), all.summary()
		segs[k].rate = float64(len(all.ns)) / wall.Seconds()
	}
	return segs
}

// queryRatio is the mean of per-query cost ratios against the
// requester-to-proxy distance; queries issued at the proxy (distance 0)
// count in neither sum, as in core.CostMeter.
func queryRatio(dm graph.DistanceOracle, costs []queryCost) (float64, int) {
	var sum float64
	n := 0
	for _, q := range costs {
		d := dm.Dist(graph.NodeID(q.from), graph.NodeID(q.loc))
		if d > 0 {
			sum += q.cost / d
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// buildSubstrate builds the server's distance substrate for a grid of
// the given size: the exact frozen metric below serve.OracleMinNodes,
// the landmark oracle at and above it.
func buildSubstrate(nodes int) (*graph.Graph, graph.DistanceOracle) {
	g := graph.NearSquareGrid(nodes)
	if nodes >= serve.OracleMinNodes {
		return g, graph.NewOracle(g, graph.OracleConfig{Seed: serverSeed})
	}
	m := graph.NewMetric(g)
	m.Precompute(0)
	return g, m
}
