// Command motserve runs the sharded tracking front end: a long-running
// HTTP/JSON server whose shards run on core.Directory, where the
// headline numbers are ops/sec and tail latency rather than cost ratio.
//
// Usage:
//
//	motserve -shards 8 -addr :8080          # 8-way sharded server
//	motserve -nodes 1024 -chaos             # bigger grid + fault drills
//
// API (JSON in, JSON out):
//
//	curl -XPOST localhost:8080/v1/publish -d '{"object":1,"node":5}'
//	curl -XPOST localhost:8080/v1/move    -d '{"object":1,"to":9}'
//	curl localhost:8080/v1/query/1
//	curl localhost:8080/v1/query/1?from=30
//	curl -XPOST localhost:8080/v1/fail/5     # 403 unless -chaos
//	curl -XPOST localhost:8080/v1/recover/5
//
// Observability:
//
//	curl localhost:8080/debug/serve                      # aggregate
//	curl localhost:8080/debug/shard/0/debug/live         # one shard
//	curl localhost:8080/debug/vars                       # expvar
//
// Fault drills (-chaos) are delivery outages, atomic per operation: an
// operation whose message-passing walk would reach a failed sensor
// answers 503 and applies nothing, so after the sensor recovers every
// query answers the last acknowledged position.
//
// Backpressure: a full per-shard move queue (-queue) or a saturated
// inflight window (-inflight) answers 429 with Retry-After: 1; clients
// should back off and retry. SIGINT/SIGTERM drains gracefully — every
// move acknowledged with a 200 is applied before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/runtime/track"
	"repro/internal/serve"
)

// drainTimeout bounds the SIGTERM drain before straggling connections
// are cut.
const drainTimeout = 10 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("motserve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 4, "directory shards (object space partitions)")
	nodes := fs.Int("nodes", 256, "sensor network size (near-square grid)")
	queue := fs.Int("queue", 1024, "per-shard pending-move queue bound")
	inflight := fs.Int("inflight", 256, "per-shard synchronous-op window")
	seed := fs.Int64("seed", 1, "overlay/telemetry seed")
	chaosAdmin := fs.Bool("chaos", false, "enable /v1/fail and /v1/recover fault drills")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "motserve: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}

	s, err := serve.New(serve.Config{
		Shards:     *shards,
		Nodes:      *nodes,
		Seed:       *seed,
		QueueDepth: *queue,
		Inflight:   *inflight,
		ChaosAdmin: *chaosAdmin,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "motserve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "motserve:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "motserve: %d shards over %d sensors, listening on %s\n",
		*shards, *nodes, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var g track.Group
	serveErr := make(chan error, 1)
	g.Go(func() { serveErr <- s.Serve(ln) })

	code := 0
	select {
	case <-ctx.Done():
		// Graceful drain: stop admitting, then let in-flight handlers
		// apply every move they were admitted with. Bounded so a wedged
		// client can't hold the process hostage.
		fmt.Fprintln(os.Stderr, "motserve: draining")
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := s.Shutdown(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "motserve: drain:", err)
			code = 1
		}
		cancel()
		<-serveErr // http.ErrServerClosed after a clean drain
	case err := <-serveErr:
		// Listener died out from under us (port conflict, ulimit, ...).
		fmt.Fprintln(os.Stderr, "motserve:", err)
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		_ = s.Shutdown(dctx)
		cancel()
		code = 1
	}
	g.Wait()
	fmt.Fprintln(os.Stderr, "motserve: drained")
	return code
}
