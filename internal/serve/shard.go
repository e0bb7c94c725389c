package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs/live"
)

// moveReq is one queued position report. Whoever applies it carries
// the outcome back on done, which the admitting handler blocks on — the
// HTTP ack IS the application, so nothing acknowledged can be lost.
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
	// handoff is no outcome: the request was dequeued unapplied, and
	// its waiter is now the combiner (see awaitMove).
	handoff bool
}

// shard is one partition of the object space: a core.Directory over the
// server's shared overlay plus the bounded move queue in front of it.
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
	// combine counts the move handlers that arrived since the current
	// combiner — moveQ's only consumer — took over; 0 means none holds
	// the role. The arrival that lifts it from 0 combines.
	combine atomic.Int64
	// sem is the inflight window for synchronous ops (publish/query);
	// a try-acquire miss is backpressure too.
	sem chan struct{}
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
func (sh *shard) enqueueMove(obj core.ObjectID, to graph.NodeID) (moveReq, bool) {
	req := moveReq{obj: obj, to: to, done: make(chan moveResult, 1)}
	select {
	case sh.moveQ <- req:
		return req, true
	default:
		return moveReq{}, false
	}
}

// awaitMove returns the outcome of req, already enqueued. The arrival
// that becomes the combiner applies the queue, its own request
// included; the others wait for their acks. A combiner lets go only by
// resetting the count it read before its last gather, so an arrival it
// may have missed fails the reset and gets another pass. Past cap(moveQ)
// moves, it hands the role to the head request's waiter instead.
func (sh *shard) awaitMove(req moveReq) moveResult {
	var batch []moveReq
	if sh.combine.Add(1) > 1 {
		if res := <-req.done; !res.handoff {
			return res
		}
		batch = append(batch, req)
	}
	for budget := cap(sh.moveQ); ; batch = nil {
		seen := sh.combine.Load()
		batch = sh.gather(batch, budget)
		budget -= len(batch)
		sh.applyBatch(batch)
		if budget <= 0 && sh.queueDepth() > 0 {
			(<-sh.moveQ).done <- moveResult{handoff: true}
			break
		}
		if sh.combine.CompareAndSwap(seen, 0) {
			break
		}
	}
	return <-req.done
}

// gather moves up to limit queued requests onto batch, in arrival
// order — coalescing depends on it. Only the combiner consumes moveQ,
// so a non-empty queue never blocks the receive.
func (sh *shard) gather(batch []moveReq, limit int) []moveReq {
	for len(batch) < limit && sh.queueDepth() > 0 {
		batch = append(batch, <-sh.moveQ)
	}
	return batch
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
