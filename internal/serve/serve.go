// Package serve is the long-running front end over the tracking
// structures: a stdlib HTTP/JSON server that turns the batch harnesses'
// one-shot workloads into a sustained publish/move/query request
// stream, the ROADMAP's "motserve" — where the headline metric is
// ops/sec and tail latency rather than cost ratio.
//
// Architecture. The object space is partitioned across N shards by a
// SplitMix64 hash of the object ID. Shards run on core.Directory: each
// owns one sequential directory over the server's shared sensor network
// and overlay hierarchy, with its own wall-clock telemetry recorder
// (internal/obs/live, labeled serve-shard-<i>) timing every directory
// op. The shard is the unit of concurrency; its ops execute one at a
// time under the shard lock. Publishes and queries execute
// synchronously under a per-shard inflight window; moves flow through a
// per-shard bounded queue into a drain loop that batches whatever is
// pending and coalesces multiple queued moves of the same object into
// the latest position before touching the directory (the paper's
// one-by-one discipline then pays one maintenance operation for a burst
// of position reports). Every accepted move is acknowledged only after
// its batch applies, so a 200 means the trail reflects the report —
// nothing acknowledged can be lost by a drain.
//
// Backpressure. Both admission paths are bounded: a full move queue or
// a saturated inflight window answers 429 with a Retry-After hint
// instead of queueing unboundedly. Shutdown drains in dependency
// order — stop admitting, finish in-flight handlers (which flushes the
// move queues, since handlers block for their acks), then stop the
// drain loops — so SIGTERM never abandons acknowledged work.
//
// Observability and chaos. /debug/serve aggregates ops/sec, queue
// depths and per-class p50/p99 across shards; each shard's live
// latencies, sampled spans and per-sensor entry counts mount under
// /debug/shard/<i>/debug/, and expvar and pprof mount once at
// /debug/vars and /debug/pprof/. With Config.ChaosAdmin set,
// POST /v1/fail/<node> and /v1/recover/<node> drive fault drills
// against the live server: the server holds one set of down sensors,
// shared by every shard. A drill is a delivery outage, atomic per op:
// before applying an op, its shard computes which sensors the op's
// message-passing walk would deliver to (core.Directory.Deliveries: the
// climb along DPath up to the first station holding the object, then
// the object's stored trail below it), and if any is down the op fails
// whole with a *chaos.DeliveryError, answered 503, having applied
// nothing. This package measures wall-clock time by design and is on
// motlint's walltime allowlist; nothing it records feeds deterministic
// artifacts.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/obs/live"
	"repro/internal/overlay"
)

// OracleMinNodes is the network size at which the server switches its
// distance substrate from the exact frozen metric to the sub-quadratic
// landmark/ball oracle (mirroring the scale harness's threshold).
const OracleMinNodes = 4096

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of independent directories the object space
	// is hash-partitioned across. Default 4.
	Shards int
	// Nodes is the sensor-network size (a near-square grid). Networks
	// of OracleMinNodes and above build on the sub-quadratic distance
	// oracle instead of the exact metric. Default 256.
	Nodes int
	// Seed drives the overlay construction and salts each shard's
	// telemetry sampling. Default 1.
	Seed int64
	// QueueDepth bounds each shard's pending-move queue; a full queue
	// answers 429. Default 1024.
	QueueDepth int
	// Inflight bounds each shard's concurrently executing publishes and
	// queries; a saturated window answers 429. Default 256.
	Inflight int
	// SampleSize caps each live recorder's span reservoir.
	// Default live.DefaultSampleSize.
	SampleSize int
	// ChaosAdmin opts in to the fault-drill admin endpoints
	// (/v1/fail, /v1/recover). Off, the endpoints answer 403 and no
	// sensor is ever down.
	ChaosAdmin bool
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Nodes <= 0 {
		c.Nodes = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Inflight <= 0 {
		c.Inflight = 256
	}
	if c.SampleSize <= 0 {
		c.SampleSize = live.DefaultSampleSize
	}
}

// Server is the sharded serving front end. Build with New, expose via
// Handler (tests) or Serve/ListenAndServe (deployments), and always
// drain with Shutdown.
type Server struct {
	cfg    Config
	g      *graph.Graph
	dm     graph.DistanceOracle
	ov     overlay.Overlay
	root   graph.NodeID
	shards []*shard
	mux    *http.ServeMux

	// agg measures request latency at the HTTP surface (admission to
	// response, queue wait included) across all shards — the number
	// /debug/serve's percentiles report. Per-shard recorders underneath
	// measure directory-op latency alone.
	agg   *live.Recorder
	start time.Time

	// down is the one set of failed sensors every shard checks its ops
	// against; ndown counts its members so the fault-free path skips
	// the check with one load.
	down  []atomic.Bool
	ndown atomic.Int64

	rejected atomic.Int64 // 429s across all endpoints

	httpMu  sync.Mutex
	httpSrv *http.Server

	// Admission against the drain: a /v1 handler joins handlers under
	// the read lock only while draining is false, and Shutdown sets
	// draining under the write lock, so handlers.Wait then covers every
	// handler that may still enqueue a move.
	admitMu  sync.RWMutex
	draining bool
	handlers sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// New builds the shared substrate (grid, distance oracle, overlay) and
// starts Config.Shards independent directories over it. The server is not
// listening yet: mount Handler yourself or call Serve/ListenAndServe.
// Call Shutdown to drain.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	g := graph.NearSquareGrid(cfg.Nodes)
	var dm graph.DistanceOracle
	if cfg.Nodes >= OracleMinNodes {
		dm = graph.NewOracle(g, graph.OracleConfig{Seed: cfg.Seed})
	} else {
		m := graph.NewMetric(g)
		m.Precompute(0)
		dm = m
	}
	ov, err := hier.Build(g, dm, hier.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("serve: building overlay: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		g:     g,
		dm:    dm,
		ov:    ov,
		root:  ov.Root().Host,
		agg:   live.New("serve", live.Config{SampleSize: cfg.SampleSize, Seed: cfg.Seed}),
		start: time.Now(),
		down:  make([]atomic.Bool, g.N()),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, s, ov))
	}
	s.mux = s.buildMux()
	return s, nil
}

// splitmix64 is the SplitMix64 finalizer — the same mixer the seed
// streams and fault plans use — here hashing object IDs onto shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardFor maps an object to its owning shard. The hash decorrelates
// shard load from dense client ID ranges (o, o+1, ... spread evenly).
func (s *Server) shardFor(o core.ObjectID) *shard {
	return s.shards[splitmix64(uint64(int64(o)))%uint64(len(s.shards))]
}

// Graph returns the shared sensor network.
func (s *Server) Graph() *graph.Graph { return s.g }

// Root returns the overlay root sensor (failing it downs every trail).
func (s *Server) Root() graph.NodeID { return s.root }

// Location returns object o's current proxy on its owning shard —
// a direct (non-HTTP) read for tests and invariant checks; valid even
// after Shutdown.
func (s *Server) Location(o core.ObjectID) (graph.NodeID, bool) {
	return s.shardFor(o).dir.Location(o)
}

// Handler returns the server's HTTP handler (the /v1 API plus the
// /debug endpoints), for tests and callers that bring their own
// listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a graceful drain, matching net/http.
func (s *Server) Serve(ln net.Listener) error {
	s.httpMu.Lock()
	if s.httpSrv == nil {
		s.httpSrv = &http.Server{Handler: s.mux}
	}
	srv := s.httpSrv
	s.httpMu.Unlock()
	return srv.Serve(ln)
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains the server in dependency order: stop admitting
// requests (new arrivals answer 503), let in-flight handlers finish —
// which flushes the move queues, because a move handler only returns
// once its batch applied — then stop the drain loops. Acknowledged
// moves are therefore always applied before the drain ends: a drain
// loses nothing a client was told succeeded. Idempotent and safe to
// call concurrently; every call returns the first drain's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		s.admitMu.Unlock()
		var err error
		s.httpMu.Lock()
		srv := s.httpSrv
		s.httpMu.Unlock()
		if srv != nil {
			if err = srv.Shutdown(ctx); err != nil {
				// Drain budget exhausted: cut stragglers. The listener is
				// already closed, so nothing new gets in either way.
				err = srv.Close()
			}
		}
		s.handlers.Wait()
		for _, sh := range s.shards {
			sh.stopLoop()
		}
		for _, sh := range s.shards {
			sh.loops.Wait()
		}
		s.closeErr = err
	})
	return s.closeErr
}

// setDown marks sensor n down (or up again) for every shard at once.
func (s *Server) setDown(n graph.NodeID, down bool) {
	if s.down[n].CompareAndSwap(!down, down) {
		if down {
			s.ndown.Add(1)
		} else {
			s.ndown.Add(-1)
		}
	}
}

// newShard starts shard i's directory and drain loop.
func newShard(i int, s *Server, ov overlay.Overlay) *shard {
	sh := &shard{
		id:  i,
		srv: s,
		live: live.New(fmt.Sprintf("serve-shard-%d", i), live.Config{
			SampleSize: s.cfg.SampleSize,
			Seed:       s.cfg.Seed + int64(i),
		}),
		dir:   core.New(ov, core.Config{}),
		moveQ: make(chan moveReq, s.cfg.QueueDepth),
		sem:   make(chan struct{}, s.cfg.Inflight),
		quit:  make(chan struct{}),
	}
	sh.loops.Go(sh.drainLoop)
	return sh
}
