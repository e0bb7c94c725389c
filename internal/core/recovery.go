package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// Fault recovery (the §7 adaptability path, fine-grained form): when a
// station crashes, the entries it stored vanish. Rather than rebuilding the
// whole directory, each damaged object's trail is re-stamped along the home
// chain of its surviving ground-truth proxy — the same O(diameter) walk a
// publish pays, amortized O(1) cluster updates in the paper's analysis.
// Recovery message cost is metered separately (CostMeter.RecoveryCost) so
// fault-free cost ratios stay comparable.

// sortedSlotKeys returns the materialized slot keys in (level, key) order,
// for deterministic sweeps over the slot map.
func (d *Directory) sortedSlotKeys() []slotKey {
	keys := make([]slotKey, 0, len(d.slots))
	for k := range d.slots {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		return keys[i].key < keys[j].key
	})
	return keys
}

// wipe erases every DL and SDL record of o. Deletions commute, so the sweep
// order is irrelevant; callers re-stamp afterwards if the object lives on.
func (d *Directory) wipe(o ObjectID) {
	for _, s := range d.slots {
		delete(s.dl, o)
		delete(s.sdl, o)
	}
}

// Unpublish removes object o from the directory: its trail is erased from
// the root down to the proxy (charged as one recovery walk) and its
// ground-truth record dropped. This is the "sensor leave / object retired"
// half of §7 dynamics; re-introducing the object later is a fresh Publish.
func (d *Directory) Unpublish(o ObjectID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.loc[o]; !ok {
		return fmt.Errorf("core: object %d %w", o, ErrNotPublished)
	}
	d.obsStart(obs.OpRecovery, o)
	cost := 0.0
	st := d.ov.Root()
	pos := st.Host
	for {
		cost += d.m.Dist(pos, st.Host)
		pos = st.Host
		d.obsVisit(st)
		s, ok := d.peek(st)
		if !ok {
			break
		}
		e, has := s.dl[o]
		if !has {
			break
		}
		d.removeEntry(st, o)
		if !e.hasChild {
			break
		}
		st = e.child
	}
	// The trailing defensive wipe iterates the slot map, so it must stay
	// silent — one aggregate event marks it instead.
	d.obsEvent(obs.EvWipe, -1, pos, 0)
	d.wipe(o) // defensive: a damaged trail may have left detached entries
	delete(d.loc, o)
	delete(d.ver, o)
	d.meter.RecoveryCost += cost
	d.meter.RecoveryOps++
	d.obsFinish(cost)
	return nil
}

// DropHost models the crash of physical node n: every DL/SDL entry stored
// at a station hosted on n is lost, and SDL shortcuts elsewhere that point
// into n are invalidated. It returns the sorted IDs of the objects whose
// directory state was damaged — the set a recovery pass must Repair once
// the node is back (or that a rebuild must cover past the churn threshold).
func (d *Directory) DropHost(n graph.NodeID) []ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	damaged := map[ObjectID]bool{}
	for _, k := range d.sortedSlotKeys() {
		s := d.slots[k]
		if s.station.Host == n {
			for o := range s.dl {
				damaged[o] = true
			}
			for o := range s.sdl {
				damaged[o] = true
			}
			s.dl = make(map[ObjectID]dlEntry)
			s.sdl = make(map[ObjectID]sdlEntry)
			continue
		}
		for o, se := range s.sdl {
			if se.child.Host == n {
				damaged[o] = true
				delete(s.sdl, o)
			}
		}
		for o, e := range s.dl {
			if e.hasChild && e.child.Host == n {
				damaged[o] = true
			}
		}
	}
	out := make([]ObjectID, 0, len(damaged))
	for o := range damaged {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Repair re-establishes o's trail after crash damage: all surviving
// fragments are wiped and the full home chain of the current ground-truth
// proxy is re-stamped at the object's current version (the fine-grained §7
// path — one object's chain, not a directory rebuild). The walk is charged
// to RecoveryCost.
func (d *Directory) Repair(o ObjectID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	proxy, ok := d.loc[o]
	if !ok {
		return fmt.Errorf("core: object %d %w", o, ErrNotPublished)
	}
	d.obsStart(obs.OpRecovery, o)
	// wipe iterates the slot map; mark it with one aggregate event rather
	// than per-slot events whose order would track map iteration.
	d.obsEvent(obs.EvWipe, -1, proxy, 0)
	d.wipe(o)
	cost := d.stampWalk(o, proxy, d.ver[o])
	d.meter.RecoveryCost += cost
	d.meter.RecoveryOps++
	d.obsFinish(cost)
	return nil
}

// Restore re-introduces object o at proxy node at: the same walk and
// resulting directory state as Publish, but charged to RecoveryCost. The
// churn path uses it where the re-stamp is repair work rather than a new
// object — republishing the population into a fresh post-rebuild
// directory, and re-introducing objects parked on a failed proxy once the
// node recovers — so fault-free cost ratios stay comparable.
func (d *Directory) Restore(o ObjectID, at graph.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.loc[o]; ok {
		return fmt.Errorf("core: object %d %w at node %d", o, ErrAlreadyPublished, cur)
	}
	d.obsStart(obs.OpRecovery, o)
	cost := d.stampWalk(o, at, 0)
	d.loc[o] = at
	d.ver[o] = 0
	d.meter.RecoveryCost += cost
	d.meter.RecoveryOps++
	d.obsFinish(cost)
	return nil
}

// StaleObjects returns the sorted IDs of published objects whose stored
// trail is no longer operational under the current overlay: following the
// detection trail from the current root station down its child pointers
// must reach the object's ground-truth proxy at level 0. That walk fails
// after crash damage (DropHost wiped a link) and after structural overlay
// repair moved the root or the height (the trail's anchor is gone), which
// are exactly the cases where a climbing operation could miss the object
// — every surviving trail is still found through its peak, at worst at
// the root (Lemma 2.1's meeting argument needs only the anchored top).
// The set is what a recovery pass must Repair; healthy move-shaped trails
// are not flagged, which keeps repair work local to the perturbation.
// Objects whose proxy satisfies skip (nil skips none) are not examined —
// a failed proxy has no defined detection path until it recovers.
func (d *Directory) StaleObjects(skip func(graph.NodeID) bool) []ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	objs := make([]ObjectID, 0, len(d.loc))
	for o := range d.loc {
		if skip != nil && skip(d.loc[o]) {
			continue
		}
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	out := objs[:0]
	root := d.ov.Root()
	// Slots above the current root level can only hold fragments of
	// trails stamped when the hierarchy was taller: after a height
	// shrink no walk — queries never climb past the root — reaches
	// them, so their objects must be re-stamped even when the walk
	// below the new root succeeds, or the fragments leak as orphans.
	var high []*slot
	for _, k := range d.sortedSlotKeys() {
		if s := d.slots[k]; k.level > root.Level && (len(s.dl) > 0 || len(s.sdl) > 0) {
			high = append(high, s)
		}
	}
	for _, o := range objs {
		if !d.trailIntact(o, d.loc[o], root) || holdsAbove(high, o) {
			out = append(out, o)
		}
	}
	return out
}

// holdsAbove reports whether any of the above-root slots still records o.
func holdsAbove(high []*slot, o ObjectID) bool {
	for _, s := range high {
		if _, has := s.dl[o]; has {
			return true
		}
		if _, has := s.sdl[o]; has {
			return true
		}
	}
	return false
}

// trailIntact follows o's stored trail from the given root station down
// to level 0, reporting whether it is unbroken and ends at the proxy.
func (d *Directory) trailIntact(o ObjectID, proxy graph.NodeID, root overlay.Station) bool {
	end, ok := d.descend(o, root, nil)
	return ok && end.Host == proxy
}

// descend follows o's stored trail from station st down its child
// pointers, calling visit (when non-nil) on each station holding o, and
// returns the station the walk ended at. ok reports an unbroken trail
// ending in a level-0 slot; a missing entry, a level skip, or visit
// returning false ends the walk early with ok false.
func (d *Directory) descend(o ObjectID, st overlay.Station, visit func(overlay.Station) bool) (end overlay.Station, ok bool) {
	for {
		s, has := d.peek(st)
		if !has {
			return st, false
		}
		e, has := s.dl[o]
		if !has {
			return st, false
		}
		if visit != nil && !visit(st) {
			return st, false
		}
		if !e.hasChild {
			return st, st.Level == 0
		}
		if e.child.Level != st.Level-1 {
			// Level strictly decreases, so the walk always terminates.
			return st, false
		}
		st = e.child
	}
}

// Deliveries calls visit, in walk order, on the host of every station an
// operation on o issued at sensor x delivers a message to under the
// message-passing protocol: the stations of DPath(x), level by level,
// climbing until one holds o, then o's stored trail below that station
// down to the proxy. That covers a move to x (insert climb, then the old
// trail's delete) and a query from x (climb, then descent; an SDL
// shortcut only lands on that trail sooner). An object no station holds
// — a publish at x — climbs to the root. visit returning false stops the
// walk. Deliveries only reads the directory; a caller that must apply
// the operation exactly when every delivery succeeds serializes the two
// itself.
func (d *Directory) Deliveries(o ObjectID, x graph.NodeID, visit func(graph.NodeID) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, level := range d.ov.DPath(x) {
		for _, st := range level {
			if d.holds(st, o) {
				d.descend(o, st, func(st overlay.Station) bool { return visit(st.Host) })
				return
			}
			if !visit(st.Host) {
				return
			}
		}
	}
}

// SwapOverlay replaces the directory's overlay (and its metric oracle)
// with a rebuilt one over the same network. Stored trails are untouched:
// the caller must follow up with a StaleObjects sweep and Repair whatever
// the structural change broke, exactly as after an in-place overlay
// repair.
func (d *Directory) SwapOverlay(ov overlay.Overlay) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ov = ov
	d.m = ov.Metric()
}

// AbsorbMeter folds a previous directory's accumulated costs into this one,
// preserving cost continuity across a full rebuild (the coarse §7 fallback
// past the churn threshold).
func (d *Directory) AbsorbMeter(m CostMeter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.meter.Add(m)
}
