// Package sim provides a discrete-event simulation of concurrent MOT and
// baseline executions (the paper's "concurrent case", §4.1.2 and §4.2.2).
//
// Time is measured in the paper's unit: the duration a message needs to
// travel unit distance, so delivering a message between hosts u and v takes
// dist(u, v) time. Maintenance operations for the same object may overlap
// in flight; the simulator enforces the paper's two concurrency mechanisms:
//
//   - per-level periods Φ(i) = 2^i·φ gate when an operation may cross from
//     level i to i+1 (§4.1.2), and
//   - same-object maintenance operations are pipelined — operation v may not
//     process level k before operation v-1 has finished processing level k —
//     the ordering that the ID-ordered parent-set probing of §3.1 provides
//     in the message-passing algorithm.
//
// Queries run fully concurrently with maintenance: a query that loses the
// trail restarts its climb from where it stands, and one that reaches a
// stale proxy waits for the delete message, which carries the new proxy
// (§3, "In this way, queries can be successful even while a move is in
// progress").
package sim

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
)

// event is a scheduled continuation. Events are ordered by (at, seq);
// seq is unique per engine, so the order is strict and total.
type event struct {
	at  float64
	seq int64 // FIFO tie-break for equal times
	fn  func()
}

// before reports whether a runs before b.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a deterministic discrete-event executor.
//
// Pending events live in two places. Events scheduled while Run is not
// executing (a driver's issue times) are appended to backlog, which Run
// sorts once on entry and then consumes from backlog[head:]. Events
// scheduled from inside a callback (in-flight messages) go to heap, a
// typed binary min-heap. Each step pops whichever of the backlog head
// and the heap top comes first under (at, seq), so the execution order
// is exactly that of a single priority queue over every event.
type Engine struct {
	now     float64
	seq     int64
	heap    []event
	backlog []event
	head    int
	running bool
	steps   int64
	limit   int64
	faults  FaultInjector
	obs     *obs.Recorder
}

// NewEngine returns an engine with the given step limit (a safety net
// against runaway simulations; <= 0 means a generous default).
func NewEngine(limit int64) *Engine {
	if limit <= 0 {
		limit = 200_000_000
	}
	return &Engine{limit: limit}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t (clamped to now for past times).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	if !e.running {
		e.backlog = append(e.backlog, ev)
		return
	}
	e.push(ev)
}

// After schedules fn delay time units from now.
func (e *Engine) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// push adds ev to the in-flight heap.
func (e *Engine) push(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// pop removes and returns the heap's first event.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure
	h = h[:n]
	if n > 0 {
		// Sift the former last element down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.heap = h
	return top
}

// next removes and returns the first pending event (Pending() > 0).
func (e *Engine) next() event {
	if e.head == len(e.backlog) || (len(e.heap) > 0 && e.heap[0].before(&e.backlog[e.head])) {
		return e.pop()
	}
	ev := e.backlog[e.head]
	e.backlog[e.head] = event{} // release the closure
	e.head++
	if e.head == len(e.backlog) {
		e.backlog, e.head = e.backlog[:0], 0
	}
	return ev
}

// sortBacklog sorts the unconsumed backlog by (at, seq). Its consumed
// prefix is non-empty only after a Run stopped at the step limit.
func (e *Engine) sortBacklog() {
	slices.SortFunc(e.backlog[e.head:], func(a, b event) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
}

// SetObs installs a recorder for the engine's queue-depth and step-count
// gauges; nil disables them.
func (e *Engine) SetObs(r *obs.Recorder) { e.obs = r }

// Run processes events in (at, seq) order until the queue drains. It
// returns an error if one call would execute more than the step limit
// (which indicates a protocol livelock); the event that would exceed
// the limit stays pending, so a later Run resumes in order.
func (e *Engine) Run() error {
	e.running = true
	defer func() { e.running = false }()
	e.sortBacklog()
	for ran := int64(0); ; ran++ {
		pending := e.Pending()
		if pending == 0 {
			break
		}
		if e.obs != nil {
			e.obs.GaugeMax("engine.queue", float64(pending))
		}
		if ran == e.limit {
			return fmt.Errorf("sim: step limit %d exceeded at t=%v (livelock?)", e.limit, e.now)
		}
		ev := e.next()
		e.now = ev.at
		e.steps++
		ev.fn()
	}
	if e.obs != nil {
		e.obs.GaugeMax("engine.steps", float64(e.steps))
	}
	return nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.backlog) - e.head }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() int64 { return e.steps }

// FaultInjector decides the fate of message deliveries. It is satisfied by
// chaos.Injector; sim does not import chaos so the simulator stays
// fault-agnostic when no injector is installed.
type FaultInjector interface {
	// Attempt decides one delivery attempt: drop it (retry after backoff)
	// or deliver it with extraDelay added to the travel time.
	Attempt(op uint64, hop, attempt int, dest graph.NodeID, dist, now float64) (drop bool, extraDelay float64)
	// MaxAttempts bounds retransmissions per message.
	MaxAttempts() int
	// Backoff returns the simulated-time wait after failed attempt k.
	Backoff(attempt int) float64
	// Fail builds the typed error surfaced when attempts are exhausted.
	Fail(op uint64, hop, attempts int, dest graph.NodeID, now float64) error
}

// Delivery is one message send through the fault layer.
type Delivery struct {
	// Op and Hop identify the message within its operation (the logical
	// key fault decisions hash).
	Op  uint64
	Hop int
	// Dest is the destination node, Dist the travel distance (= fault-free
	// travel time).
	Dest graph.NodeID
	Dist float64
	// OnAttempt is invoked once per transmission attempt, before its fate
	// is decided — the place to account retransmission cost.
	OnAttempt func(attempt int)
	// Fn runs at the destination when an attempt gets through.
	Fn func()
	// OnFail runs when MaxAttempts attempts all dropped. Nil panics the
	// simulation (callers must handle failure when faults are installed).
	OnFail func(err error)
}

// SetFaults installs a fault injector; nil restores fault-free delivery.
func (e *Engine) SetFaults(f FaultInjector) { e.faults = f }

// Deliver sends one message. Without an injector this is exactly
// After(d.Dist, d.Fn) plus the OnAttempt(1) accounting callback, so
// fault-free runs are byte-identical to the pre-chaos engine. With an
// injector, dropped attempts are retried after the attempt's timeout
// (Dist) plus exponential backoff, and exhausting the budget invokes
// OnFail with the injector's typed error.
func (e *Engine) Deliver(d Delivery) {
	if e.faults == nil {
		if d.OnAttempt != nil {
			d.OnAttempt(1)
		}
		e.After(d.Dist, d.Fn)
		return
	}
	e.deliverAttempt(d, 1)
}

func (e *Engine) deliverAttempt(d Delivery, attempt int) {
	if d.OnAttempt != nil {
		d.OnAttempt(attempt)
	}
	drop, extra := e.faults.Attempt(d.Op, d.Hop, attempt, d.Dest, d.Dist, e.now)
	if !drop {
		e.After(d.Dist+extra, d.Fn)
		return
	}
	if attempt >= e.faults.MaxAttempts() {
		err := e.faults.Fail(d.Op, d.Hop, attempt, d.Dest, e.now)
		if d.OnFail == nil {
			panic(fmt.Sprintf("sim: unhandled delivery failure: %v", err))
		}
		d.OnFail(err)
		return
	}
	// The sender learns of the loss after the attempt's timeout (one
	// travel time), then waits out the backoff before retransmitting.
	e.After(d.Dist+e.faults.Backoff(attempt), func() {
		e.deliverAttempt(d, attempt+1)
	})
}
