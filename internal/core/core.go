// Package core implements the MOT directory (Algorithm 1 of the paper): the
// detection lists (DL) and special detection lists (SDL) maintained at the
// stations of a hierarchical overlay, and the publish, maintenance
// (insert + delete), and query operations over them, with communication-cost
// metering against the optimal costs.
//
// The engine in this package executes operations one by one (the paper's
// "one by one case", §4.1.1); the discrete-event simulator in internal/sim
// drives the same state machine for the concurrent case.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// ObjectID identifies a distinct mobile object (the paper's o_1..o_m).
type ObjectID int

// Client-fault classification of operation errors, so callers (the
// goroutine runtime, internal/serve) can tell a misuse from a failure
// with errors.Is instead of string matching.
var (
	// ErrAlreadyPublished reports a Publish (or Restore) of an object
	// that is already tracked.
	ErrAlreadyPublished = errors.New("already published")
	// ErrNotPublished reports an operation on an object that was never
	// published (or was unpublished).
	ErrNotPublished = errors.New("not published")
)

// Config controls directory behavior.
type Config struct {
	// CountSpecialParentCost folds SDL registration/cleanup messages into
	// the maintenance cost. The paper's analysis excludes this cost (a
	// constant-factor increase in constant-doubling networks, §4); when
	// false it is still incurred and reported separately in the meter.
	CountSpecialParentCost bool
	// Placement distributes the storage of DL/SDL entries across physical
	// nodes (§5 load balancing). Nil means entries live on the station's
	// own host.
	Placement Placement
	// LBThreshold is the detection-list size at which a station starts
	// distributing its entries across its cluster ("the load balancing
	// procedure of MOT kicks in when a maintenance operation floods the
	// detection list of an internal node", §8). Stations below the
	// threshold keep entries local and pay no routing surcharge. Zero
	// defaults to 4 (well under the load-10 bound the paper's Figs. 8–11
	// highlight, since one sensor hosts several stations); negative
	// distributes unconditionally.
	LBThreshold int
	// CountLBRouteCost folds the intra-cluster routing surcharge into the
	// operation costs (the Corollary 5.2 cost model). Like the
	// special-parent cost, the paper's reported ratios treat it as a
	// separate constant/logarithmic factor, so it is metered separately
	// (CostMeter.LBRouteCost) by default.
	CountLBRouteCost bool
	// CountReply adds the result-return message (proxy back to the
	// requester) to the query cost. The paper's query cost analysis covers
	// the search walk; off by default.
	CountReply bool
	// Obs receives a span per operation plus per-node/per-level metrics.
	// Nil (the default) disables observability; instrumented paths then
	// pay one pointer test per hook (see internal/obs).
	Obs *obs.Recorder
	// ExactSampleEvery enables sampled exact re-metering: roughly one in
	// this many move/query operations (chosen by a seeded hash of the
	// operation index) has its distance terms re-measured with on-demand
	// exact Dijkstra rows, filling the CostMeter.Sampled* fields. Zero
	// disables sampling. Only useful when the overlay runs on an
	// approximate oracle — on the exact metric the sampled Est and Exact
	// fields coincide.
	ExactSampleEvery int
	// ExactSampleSeed seeds the operation-sampling hash.
	ExactSampleSeed int64
}

// slotKey identifies a directory slot: one station of the overlay.
type slotKey struct {
	level int
	key   int64
}

// dlEntry is one object's record in a station's detection list.
type dlEntry struct {
	// child is the next station downward on the object's trail; hasChild
	// is false at the bottom-level proxy slot.
	child    overlay.Station
	hasChild bool
	// sp is the special parent registered for this entry; spOK is false
	// near the root where special parents are undefined.
	sp   overlay.Station
	spOK bool
	// version is the move sequence number that stamped this entry.
	version uint64
}

// sdlEntry is one object's record in a station's special detection list: a
// downward shortcut to the special child that registered it.
type sdlEntry struct {
	child   overlay.Station
	version uint64
}

// slot is the mutable directory state of one station.
type slot struct {
	station overlay.Station
	dl      map[ObjectID]dlEntry
	sdl     map[ObjectID]sdlEntry
}

// Directory is the MOT tracking structure over an overlay.
type Directory struct {
	mu  sync.Mutex
	ov  overlay.Overlay
	m   graph.DistanceOracle
	cfg Config

	slots map[slotKey]*slot
	loc   map[ObjectID]graph.NodeID // ground-truth proxy of each object
	ver   map[ObjectID]uint64       // move sequence numbers

	meter CostMeter

	// Sampled exact re-metering state (see sample.go): the row cache, the
	// move/query operation counter the sampling hash keys on, and the
	// in-flight operation's accumulators.
	sampler    *exactSampler
	sampOps    uint64
	sampActive bool
	sampEst    float64
	sampExact  float64

	// Observability state (see obs.go): operation counter, cumulative-cost
	// logical clock, and the span of the operation in flight.
	obsOp  uint64
	obsNow float64
	obsCur obs.Span
}

// New creates an empty directory over the overlay. Objects must be
// introduced with Publish before they can be moved or queried.
func New(ov overlay.Overlay, cfg Config) *Directory {
	if cfg.Placement == nil {
		cfg.Placement = HostPlacement{}
	}
	switch {
	case cfg.LBThreshold == 0:
		cfg.LBThreshold = 4
	case cfg.LBThreshold < 0:
		cfg.LBThreshold = 0 // distribute unconditionally
	}
	d := &Directory{
		ov:    ov,
		m:     ov.Metric(),
		cfg:   cfg,
		slots: make(map[slotKey]*slot),
		loc:   make(map[ObjectID]graph.NodeID),
		ver:   make(map[ObjectID]uint64),
	}
	if cfg.ExactSampleEvery > 0 {
		d.sampler = newExactSampler(d.m.Graph())
	}
	return d
}

// Overlay returns the overlay the directory runs on (ov is mu-guarded
// since SwapOverlay can replace it after a churn rebuild).
func (d *Directory) Overlay() overlay.Overlay {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ov
}

// Meter returns a snapshot of the accumulated cost counters.
func (d *Directory) Meter() CostMeter {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.meter
}

// ResetMeter zeroes the cost counters (e.g. after warmup).
func (d *Directory) ResetMeter() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.meter = CostMeter{}
}

// Location returns the current proxy of o.
func (d *Directory) Location(o ObjectID) (graph.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.loc[o]
	return v, ok
}

// Objects returns the IDs of all published objects, sorted.
func (d *Directory) Objects() []ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ObjectID, 0, len(d.loc))
	for o := range d.loc {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *Directory) slot(st overlay.Station) *slot {
	k := slotKey{level: st.Level, key: st.Key}
	s, ok := d.slots[k]
	if !ok {
		//motlint:ignore hotalloc lazy one-time materialization of a station's slot
		s = &slot{station: st, dl: make(map[ObjectID]dlEntry), sdl: make(map[ObjectID]sdlEntry)}
		d.slots[k] = s
	}
	return s
}

func (d *Directory) peek(st overlay.Station) (*slot, bool) {
	s, ok := d.slots[slotKey{level: st.Level, key: st.Key}]
	return s, ok
}

func (d *Directory) holds(st overlay.Station, o ObjectID) bool {
	if s, ok := d.peek(st); ok {
		_, has := s.dl[o]
		return has
	}
	return false
}

func (d *Directory) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprintf("mot.Directory{objects=%d slots=%d}", len(d.loc), len(d.slots))
}
