package serve

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs/live"
	"repro/internal/runtime/track"
)

// moveReq is one queued position report: apply carries the outcome back
// on done, which the admitting handler blocks on — the HTTP ack IS the
// application, so nothing acknowledged can be lost.
type moveReq struct {
	obj  core.ObjectID
	to   graph.NodeID
	done chan moveResult
}

// moveResult is the outcome of an applied (or coalesced-away) move.
type moveResult struct {
	err error
	// coalesced reports that this request's position was superseded by a
	// later queued move of the same object before the directory saw it —
	// the ack still means "the trail reflects a report at least as new
	// as yours".
	coalesced bool
}

// shard is one partition of the object space: a core.Directory over the
// server's shared overlay plus the bounded move queue and drain loop in
// front of it.
type shard struct {
	id   int
	srv  *Server
	live *live.Recorder

	// mu serializes the shard's ops, so each op's delivery check and
	// its apply see the same directory state; seq numbers the ops for
	// DeliveryError reports.
	mu  sync.Mutex
	dir *core.Directory
	seq uint64

	// moveQ is the bounded pending-move queue; a full queue is
	// backpressure (429), never a blocked handler.
	moveQ chan moveReq
	// sem is the inflight window for synchronous ops (publish/query);
	// a try-acquire miss is backpressure too.
	sem chan struct{}

	quit     chan struct{}
	quitOnce sync.Once
	loops    track.Group
}

// stopLoop signals the drain loop to flush and exit; idempotent so
// tests can stop one shard's loop ahead of a full Shutdown.
func (sh *shard) stopLoop() {
	sh.quitOnce.Do(func() { close(sh.quit) })
}

// tryAcquire claims an inflight slot without blocking.
func (sh *shard) tryAcquire() bool {
	select {
	case sh.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (sh *shard) release() { <-sh.sem }

// enqueueMove admits a move into the bounded queue. ok=false means the
// queue is full right now — the caller answers 429 and the client
// retries; nothing was accepted, so nothing can be lost.
func (sh *shard) enqueueMove(obj core.ObjectID, to graph.NodeID) (chan moveResult, bool) {
	req := moveReq{obj: obj, to: to, done: make(chan moveResult, 1)}
	select {
	case sh.moveQ <- req:
		return req.done, true
	default:
		return nil, false
	}
}

// drainLoop is the shard's single consumer: block for one pending move,
// gather whatever else is queued behind it, coalesce per object, apply,
// ack. Because handlers block on their done channels and Server.Shutdown
// only closes quit after every handler has returned, a closed quit
// implies an empty queue — the final gather below is belt and braces for
// direct (non-HTTP) enqueuers in tests.
func (sh *shard) drainLoop() {
	for {
		select {
		case <-sh.quit:
			sh.applyBatch(sh.gather(nil))
			return
		case first := <-sh.moveQ:
			sh.applyBatch(sh.gather([]moveReq{first}))
		}
	}
}

// gather drains everything currently queued, without blocking, onto
// batch. Arrival order is preserved — coalescing depends on it.
func (sh *shard) gather(batch []moveReq) []moveReq {
	for {
		select {
		case req := <-sh.moveQ:
			batch = append(batch, req)
		default:
			return batch
		}
	}
}

// applyBatch collapses the batch to one directory op per object — the
// latest queued position wins, per arrival order — applies those in
// first-appearance order, then acks every waiter with its group's
// outcome. Superseded requests are marked coalesced; under the paper's
// one-by-one maintenance discipline this is where a burst of position
// reports for a hot object costs one trail update instead of many.
func (sh *shard) applyBatch(batch []moveReq) {
	if len(batch) == 0 {
		return
	}
	// Group by object, preserving first-appearance order so acks and
	// applies stay deterministic for a given arrival order. The map only
	// locates each object's group; iteration runs over the slice.
	groups := make([][]moveReq, 0, len(batch))
	idx := make(map[core.ObjectID]int, len(batch))
	for _, req := range batch {
		i, ok := idx[req.obj]
		if !ok {
			i = len(groups)
			idx[req.obj] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], req)
	}
	for _, group := range groups {
		winner := group[len(group)-1]
		err := sh.move(winner.obj, winner.to)
		for _, req := range group {
			req.done <- moveResult{err: err, coalesced: req.to != winner.to}
		}
	}
}

// publish, move and query run one directory op each through do.
func (sh *shard) publish(o core.ObjectID, at graph.NodeID) error {
	return sh.do(live.ClassPublish, o, at, func() error { return sh.dir.Publish(o, at) })
}

func (sh *shard) move(o core.ObjectID, to graph.NodeID) error {
	return sh.do(live.ClassMove, o, to, func() error { return sh.dir.Move(o, to) })
}

func (sh *shard) query(from graph.NodeID, o core.ObjectID) (loc graph.NodeID, cost float64, err error) {
	loc = graph.Undefined
	err = sh.do(live.ClassQuery, o, from, func() (err error) {
		loc, cost, err = sh.dir.Query(from, o)
		return err
	})
	return loc, cost, err
}

// do runs op, an op of class c on o issued at sensor x, under mu unless
// refused first, timing it into the shard's live recorder from before
// the lock, so lock wait counts.
func (sh *shard) do(c live.Class, o core.ObjectID, x graph.NodeID, op func() error) error {
	st := sh.live.Start()
	sh.mu.Lock()
	err := sh.refused(c, o, x)
	if err == nil {
		err = op()
	}
	sh.mu.Unlock()
	sh.live.Observe(c, st, int(o), err)
	return err
}

// refused returns the *chaos.DeliveryError for an op of class c on o
// issued at sensor x whose walk would deliver to a down sensor, and nil
// when the op may apply. The caller holds mu, so the op then applies
// against the state checked here: a refused op applies nothing.
// Publishing a tracked object, moving or querying an untracked one, and
// moving an object to its own proxy end before any delivery, so they
// are left to the directory to answer.
func (sh *shard) refused(c live.Class, o core.ObjectID, x graph.NodeID) error {
	sh.seq++
	if sh.srv.ndown.Load() == 0 {
		return nil
	}
	at, ok := sh.dir.Location(o)
	if ok == (c == live.ClassPublish) || (c == live.ClassMove && at == x) {
		return nil
	}
	var err error
	hop := 0
	sh.dir.Deliveries(o, x, func(n graph.NodeID) bool {
		hop++
		if sh.srv.down[n].Load() {
			err = &chaos.DeliveryError{Op: sh.seq, Hop: hop, Attempts: 1, Dest: n}
		}
		return err == nil
	})
	return err
}

// queueDepth reports how many moves are pending right now (diagnostic).
func (sh *shard) queueDepth() int { return len(sh.moveQ) }

// inflight reports how many synchronous ops hold window slots right now.
func (sh *shard) inflight() int { return len(sh.sem) }
