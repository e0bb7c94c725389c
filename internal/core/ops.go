package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// Operations follow Algorithm 1 with the §3.1 parent-set refinement
// realized as probe-all / stamp-home: climbing operations visit every
// parent-set station of each level in ID order (which is what guarantees
// the Lemma 2.1 meeting levels and avoids the Fig. 3 race), while detection
// trails are anchored at the default-parent (home) chain, so each object's
// trail is a single root-to-proxy pointer chain. Lemma 2.1's proof needs
// exactly this asymmetry: the prober's parent set at level ceil(log d)+1
// always contains the target's home station.

// Publish introduces object o at proxy node at, stamping o along the home
// chain of DPath(at) up to the root (Algorithm 1 lines 1–5). Publishing an
// already-published object is an error.
//
//motlint:hotpath
func (d *Directory) Publish(o ObjectID, at graph.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.loc[o]; ok {
		return fmt.Errorf("core: object %d %w at node %d", o, ErrAlreadyPublished, cur)
	}
	d.obsStart(obs.OpPublish, o)
	cost := d.stampWalk(o, at, 0)
	d.loc[o] = at
	d.ver[o] = 0
	d.meter.PublishCost += cost
	d.meter.PublishOps++
	d.obsFinish(cost)
	return nil
}

// stampWalk performs the publish-shaped walk that stamps o along the home
// chain of DPath(at) up to the root at version ver, returning the walk
// cost. Publish, Repair, and Restore share it so a re-stamped trail is
// state- and cost-identical to a freshly published one.
//
//motlint:hotpath
func (d *Directory) stampWalk(o ObjectID, at graph.NodeID, ver uint64) float64 {
	path := d.ov.DPath(at)
	cost := 0.0
	prev := path[0][0]
	for l := 0; l < len(path); l++ {
		lvl := cost
		for _, st := range path[l] {
			cost += d.m.Dist(prev.Host, st.Host)
			prev = st
			d.obsVisit(st)
		}
		d.obsEvent(obs.EvHop, l, prev.Host, cost-lvl)
		cost += d.stampHome(at, path, l, o, ver)
	}
	return cost
}

// Move performs a maintenance operation: object o has moved from its
// current proxy to node to. The insert climbs DPath(to), probing every
// station of each level, until it finds a station already holding o (the
// peak); it repoints the peak into the new home chain and the delete then
// erases the old trail downward to the old proxy (Algorithm 1 lines 6–18).
//
//motlint:hotpath
func (d *Directory) Move(o ObjectID, to graph.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	from, ok := d.loc[o]
	if !ok {
		return fmt.Errorf("core: object %d %w", o, ErrNotPublished)
	}
	if from == to {
		return nil
	}
	d.ver[o]++
	ver := d.ver[o]
	d.obsStart(obs.OpMove, o)
	sampled := d.sampleBegin()
	path := d.ov.DPath(to)
	cost := 0.0
	prev := path[0][0]
	cost += d.stampHome(to, path, 0, o, ver)

	var peak overlay.Station
	var oldEntry Entry
	found := false
	for l := 1; l < len(path) && !found; l++ {
		lvl := cost
		for _, st := range path[l] {
			cost += d.dist(prev.Host, st.Host)
			prev = st
			d.obsVisit(st)
			if found {
				continue
			}
			if e, has := d.store.Get(st, o); has {
				found, peak, oldEntry = true, st, e
				d.obsEvent(obs.EvPeak, st.Level, st.Host, 0)
				cost += d.touch(st, o) // read the distributed entry
			}
		}
		d.obsEvent(obs.EvHop, l, prev.Host, cost-lvl)
		if !found {
			cost += d.stampHome(to, path, l, o, ver)
		}
	}
	if !found {
		// The root always holds every published object; reaching here
		// indicates directory corruption.
		return fmt.Errorf("core: insert for object %d reached the top without finding it", o)
	}

	// Repoint the peak into the new chain.
	cost += d.stamp(to, path, peak.Level, peak, o, ver)

	// Delete the old trail downward from the peak's previous pointer.
	if !oldEntry.HasChild {
		return fmt.Errorf("core: peak entry for object %d at %v has no child", o, peak)
	}
	cur := oldEntry.Child
	pos := prev.Host
	for {
		cost += d.dist(pos, cur.Host)
		pos = cur.Host
		d.obsVisit(cur)
		cost += d.touch(cur, o)
		e, ok := d.erase(cur, o)
		if !ok {
			return fmt.Errorf("core: delete for object %d lost the trail at %v", o, cur)
		}
		if !e.HasChild {
			break // old proxy's bottom-level slot erased
		}
		cur = e.Child
	}

	d.loc[o] = to
	optEst := d.m.Dist(from, to)
	d.meter.AddMaintSample(cost, optEst)
	if sampled {
		d.sampleEndMaint(from, to, optEst)
	}
	d.obsFinish(cost)
	return nil
}

// QueryTrace reports how a query was resolved.
type QueryTrace struct {
	// HitLevel is the level at which the object was found in a DL or SDL.
	HitLevel int
	// ViaSDL is true when the hit came from a special detection list.
	ViaSDL bool
	// Cost is the query's communication cost.
	Cost float64
}

// Query locates object o from requesting node from (Algorithm 1 lines
// 19–24): climb DPath(from), probing each level's stations, until one holds
// o in its DL or SDL, then descend the trail (via the special child for an
// SDL hit) to the proxy. It returns the proxy and this query's cost.
//
//motlint:hotpath
func (d *Directory) Query(from graph.NodeID, o ObjectID) (graph.NodeID, float64, error) {
	proxy, tr, err := d.QueryTraced(from, o)
	return proxy, tr.Cost, err
}

// QueryTraced is Query returning resolution details (hit level, SDL use) —
// used by the theory-validation tests for Lemma 2.1 and Lemma 4.10.
//
//motlint:hotpath
func (d *Directory) QueryTraced(from graph.NodeID, o ObjectID) (graph.NodeID, QueryTrace, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	proxy, ok := d.loc[o]
	if !ok {
		return graph.Undefined, QueryTrace{}, fmt.Errorf("core: object %d %w", o, ErrNotPublished)
	}
	d.obsStart(obs.OpQuery, o)
	sampled := d.sampleBegin()
	path := d.ov.DPath(from)
	cost := 0.0
	prev := path[0][0]

	var hitDL, hitSDL bool
	var at, sdlChild overlay.Station
	for l := 0; l < len(path) && !hitDL && !hitSDL; l++ {
		lvl := cost
		for _, st := range path[l] {
			cost += d.dist(prev.Host, st.Host)
			prev = st
			d.obsVisit(st)
			if hitDL || hitSDL {
				continue
			}
			switch hit, child := d.store.Probe(st, o); hit {
			case HitDL:
				hitDL, at = true, st
				d.obsEvent(obs.EvPeak, st.Level, st.Host, 0)
				cost += d.touch(st, o) // read the distributed entry
			case HitSDL:
				hitSDL, at, sdlChild = true, st, child
				d.obsEvent(obs.EvSDL, st.Level, st.Host, 0)
				cost += d.touch(st, o)
			}
		}
		d.obsEvent(obs.EvHop, l, prev.Host, cost-lvl)
	}
	if !hitDL && !hitSDL {
		d.obsFinish(cost)
		return graph.Undefined, QueryTrace{Cost: cost}, fmt.Errorf("core: query for object %d found no trace up to the root", o)
	}
	trace := QueryTrace{HitLevel: at.Level, ViaSDL: hitSDL}

	cur := at
	if hitSDL {
		cost += d.dist(cur.Host, sdlChild.Host)
		cur = sdlChild
		d.obsVisit(cur)
		cost += d.touch(cur, o)
		if _, ok := d.store.Get(cur, o); !ok {
			trace.Cost = cost
			d.obsFinish(cost)
			return graph.Undefined, trace, fmt.Errorf("core: stale SDL shortcut for object %d at %v", o, at)
		}
	}

	for {
		e, ok := d.store.Get(cur, o)
		if !ok {
			trace.Cost = cost
			d.obsFinish(cost)
			return graph.Undefined, trace, fmt.Errorf("core: descent lost object %d at %v", o, cur)
		}
		if !e.HasChild {
			break // bottom-level proxy slot
		}
		cost += d.dist(cur.Host, e.Child.Host)
		cur = e.Child
		d.obsVisit(cur)
		cost += d.touch(cur, o)
	}
	if cur.Host != proxy {
		trace.Cost = cost
		d.obsFinish(cost)
		return graph.Undefined, trace, fmt.Errorf("core: query for object %d ended at %d, proxy is %d", o, cur.Host, proxy)
	}
	if d.cfg.CountReply {
		cost += d.dist(proxy, from)
	}
	trace.Cost = cost
	optEst := d.m.Dist(from, proxy)
	d.meter.AddQuerySample(cost, optEst)
	if sampled {
		d.sampleEndQuery(from, proxy, optEst)
	}
	d.obsFinish(cost)
	return proxy, trace, nil
}

// stampHome writes o's entry at the home station of path level l, pointing
// down at the home station one level below, and registers the special
// parent. It returns the placement routing surcharge.
func (d *Directory) stampHome(owner graph.NodeID, path overlay.Path, l int, o ObjectID, ver uint64) float64 {
	return d.stamp(owner, path, l, d.ov.HomeStation(owner, l), o, ver)
}

// stamp writes o's entry at st, the station of path level l, pointing down
// into owner's home chain, and accounts the special-parent registration.
// The insert repoints its peak with it.
func (d *Directory) stamp(owner graph.NodeID, path overlay.Path, l int, st overlay.Station, o ObjectID, ver uint64) float64 {
	var child overlay.Station
	if l > 0 {
		child = d.ov.HomeStation(owner, l-1)
	}
	e := d.store.Stamp(path, l, st, child, o, ver, d.ov.SpecialOffset())
	d.obsEvent(obs.EvStamp, l, st.Host, 0)
	if e.SPOK {
		c := d.m.Dist(st.Host, e.SP.Host)
		d.addSpecialCost(c)
		d.obsEvent(obs.EvSDL, e.SP.Level, e.SP.Host, c)
	}
	return d.touch(st, o)
}

// erase deletes o's entry at st and accounts the SDL cleanup message.
func (d *Directory) erase(st overlay.Station, o ObjectID) (Entry, bool) {
	e, ok := d.store.Erase(st, o)
	if !ok {
		return e, false
	}
	d.obsEvent(obs.EvWipe, st.Level, st.Host, 0)
	if e.SPOK {
		d.addSpecialCost(d.m.Dist(st.Host, e.SP.Host))
	}
	return e, true
}

// touch accounts the intra-cluster routing surcharge for accessing the
// entry of o at st under the configured placement (Corollary 5.2's
// O(log n) factor shows up in measured ratios when load balancing is on).
// Only stations whose detection list has grown past the threshold
// distribute — the paper's adaptive "kicks in when flooded" behavior.
func (d *Directory) touch(st overlay.Station, o ObjectID) float64 {
	if !d.distributed(st) {
		return 0
	}
	c := d.cfg.Placement.RouteCost(st, o)
	d.meter.LBRouteCost += c
	d.obsEvent(obs.EvLBRoute, st.Level, st.Host, c)
	if !d.cfg.CountLBRouteCost {
		return 0
	}
	return c
}

// distributed reports whether st currently spreads its entries across its
// cluster.
func (d *Directory) distributed(st overlay.Station) bool {
	if _, host := d.cfg.Placement.(HostPlacement); host {
		return false
	}
	s, ok := d.store.peek(st)
	return ok && len(s.dl) >= d.cfg.LBThreshold
}

// addSpecialCost accounts an SDL maintenance message; folded into MaintCost
// only when configured (the paper's analysis reports it separately).
func (d *Directory) addSpecialCost(c float64) {
	d.meter.SpecialCost += c
	if d.cfg.CountSpecialParentCost {
		d.meter.MaintCost += c
	}
}
