package serve

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs/live"
)

// ShardStatus is one shard's row in the /debug/serve snapshot.
type ShardStatus struct {
	ID    int    `json:"id"`
	Label string `json:"label"`
	// QueueDepth is the number of moves queued but not yet gathered by
	// the shard's combiner at snapshot time; sustained depth near the
	// configured bound means clients are about to see 429s.
	QueueDepth int `json:"queue_depth"`
	// Inflight is the number of synchronous ops holding window slots.
	Inflight int `json:"inflight"`
	// Ops is the shard directory's lifetime operation count.
	Ops int64 `json:"ops"`
}

// Status is the aggregated /debug/serve snapshot: service-level rates
// and tails plus per-shard queue pressure. Request percentiles are
// measured at the HTTP surface (queue wait included); per-shard
// directory-op latencies live under /debug/shard/<i>/debug/live.
type Status struct {
	Shards     int     `json:"shards"`
	Nodes      int     `json:"nodes"`
	QueueDepth int     `json:"queue_bound"`
	Inflight   int     `json:"inflight_bound"`
	UptimeNs   int64   `json:"uptime_ns"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// Rejected counts 429 responses (move queue or inflight window
	// full) over the server's lifetime.
	Rejected int64 `json:"rejected"`
	// Request carries per-class request-latency percentiles
	// (p50/p90/p99/p999) from the service-level recorder.
	Request     live.Snapshot `json:"request"`
	ShardStatus []ShardStatus `json:"shard_status"`
}

// Snapshot assembles the current aggregated service status.
func (s *Server) Snapshot() Status {
	snap := s.agg.Snapshot()
	uptime := time.Since(s.start)
	st := Status{
		Shards:     len(s.shards),
		Nodes:      s.cfg.Nodes,
		QueueDepth: s.cfg.QueueDepth,
		Inflight:   s.cfg.Inflight,
		UptimeNs:   int64(uptime),
		Rejected:   s.rejected.Load(),
		Request:    snap,
	}
	if secs := uptime.Seconds(); secs > 0 {
		st.OpsPerSec = float64(snap.Total.Count) / secs
	}
	for _, sh := range s.shards {
		st.ShardStatus = append(st.ShardStatus, ShardStatus{
			ID:         sh.id,
			Label:      sh.live.Label(),
			QueueDepth: sh.queueDepth(),
			Inflight:   sh.inflight(),
			Ops:        sh.live.Snapshot().Total.Count,
		})
	}
	return st
}

func (s *Server) handleDebugServe(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// mountDebug registers the diagnostics: the process-wide expvar and
// pprof handlers once, and each shard's own views under
// /debug/shard/<i>/debug/ — live latencies, sampled spans, and
// per-sensor entry counts.
func (s *Server) mountDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/serve", s.handleDebugServe)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/shard/{i}/debug/live", s.shardDebug(func(w http.ResponseWriter, sh *shard) {
		b, err := live.MarshalSnapshotJSON(sh.live.Latest())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(b)
	}))
	mux.HandleFunc("/debug/shard/{i}/debug/live/samples", s.shardDebug(func(w http.ResponseWriter, sh *shard) {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sh.live.Samples())
	}))
	mux.HandleFunc("/debug/shard/{i}/debug/load", s.shardDebug(func(w http.ResponseWriter, sh *shard) {
		_ = json.NewEncoder(w).Encode(sh.dir.LoadByNode(s.g.N()))
	}))
}

// shardDebug resolves the {i} path segment to a shard (404 when it
// names none) and serves JSON from it.
func (s *Server) shardDebug(serve func(http.ResponseWriter, *shard)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(r.PathValue("i"))
		if err != nil || i < 0 || i >= len(s.shards) {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		serve(w, s.shards[i])
	}
}
