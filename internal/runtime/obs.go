package runtime

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Observability hooks for the live-goroutine substrate. The runtime has
// no clock at all (motlint's walltime rule bans wall time, and sleeping
// would break determinism), so the logical clock is a cost clock: a span
// opens at the current accumulated clock value and the clock advances by
// the operation's cost when it completes. Under sequential replay —
// one blocking operation at a time, the mode the golden tests drive —
// this ordering is exact and exports are byte-deterministic; racing
// clients still record safely, but span ids then follow the racy issue
// order. Events inside a span carry the span's start time (the runtime
// cannot time individual hops) and rely on Seq for ordering.

// obsBegin opens the span for op and bumps the in-flight gauge.
func (t *Tracker) obsBegin(kind string, op *opState) {
	if t.obs == nil {
		return
	}
	t.obsMu.Lock()
	op.at = t.obsNow
	t.inflight++
	t.obs.GaugeMax("ops.inflight", float64(t.inflight))
	t.obsMu.Unlock()
	op.span = t.obs.StartSpan(kind, op.id, int(op.o), op.at)
}

// obsEnd closes op's span, advancing the cost clock by its final cost.
func (t *Tracker) obsEnd(op *opState) {
	if t.obs == nil {
		return
	}
	t.obsMu.Lock()
	t.obsNow += op.cost
	end := t.obsNow
	t.inflight--
	t.obsMu.Unlock()
	op.span.End(end)
}

// obsEvent annotates op's span (event time = span start; Seq orders).
func (t *Tracker) obsEvent(op *opState, kind string, level int, node graph.NodeID, cost float64) {
	if t.obs == nil {
		return
	}
	op.span.Event(kind, level, int(node), cost, op.at)
}

// obsArrive accounts the operation's arrival at node n while processing
// the given overlay level.
func (t *Tracker) obsArrive(op *opState, level int, n graph.NodeID) {
	if t.obs == nil {
		return
	}
	t.obs.AddAt(obs.SeriesLevelHops, level, 1)
	op.span.Event(obs.EvHop, level, int(n), 0, op.at)
}

// obsAttempt accounts one transmission attempt toward dest (retries
// included, mirroring the cost meter).
func (t *Tracker) obsAttempt(op *opState, dest graph.NodeID, d float64, attempt int) {
	if t.obs == nil {
		return
	}
	t.obs.AddAt(obs.SeriesNodeMsgs, int(dest), 1)
	if attempt > 1 {
		op.span.Event(obs.EvRetry, -1, int(dest), d, op.at)
	}
}

// LoadByNode returns the number of detection-list entries stored at each
// sensor node. Node stores are owned by the node goroutines, so call only
// at quiescence (no operations in flight).
func (t *Tracker) LoadByNode() []int {
	out := make([]int, len(t.stores))
	for n := range t.stores {
		out[n], _ = t.stores[n].Count()
	}
	return out
}

// CheckInvariants validates the trails the node stores hold together
// against the ground-truth locations, with the shared core check
// (core.Store.Check). Like LoadByNode, call only at quiescence.
func (t *Tracker) CheckInvariants() error {
	t.locMu.Lock()
	defer t.locMu.Unlock()
	if err := core.Union(t.stores).Check(t.ov.Root(), t.loc); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	return nil
}

// ObserveLoad snapshots LoadByNode into the recorder's node.entries
// series, replacing any previous snapshot. Quiescence rules as above.
func (t *Tracker) ObserveLoad() {
	if t.obs == nil {
		return
	}
	load := t.LoadByNode()
	vals := make([]float64, len(load))
	for i, v := range load {
		vals[i] = float64(v)
	}
	t.obs.SetSeries(obs.SeriesNodeEntries, vals)
}
