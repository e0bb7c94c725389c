package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/overlay"
)

// Station state (§3). Every station keeps a detection list (DL): one
// entry per object whose trail passes through it, pointing one level
// down the trail. It also keeps a special detection list (SDL): the
// shortcuts registered by the stations it is special parent of. Store
// holds that state for a set of stations and provides the per-station
// steps of Algorithm 1 — stamp, probe, erase — plus the one trail walk
// the invariant checks use. The paper's iterative algorithm "can be
// immediately converted to a message-passing based distributed
// algorithm" (§3, footnote 2): the Directory, the discrete-event
// simulator (internal/sim) and the goroutine runtime (internal/runtime,
// one Store per node, holding the stations that node hosts) are three
// drivers of this one state machine.
//
// A Store is not safe for concurrent use. The zero value is empty and
// ready to use.
type Store struct {
	slots map[slotKey]*slot
}

// slotKey identifies a directory slot: one station of the overlay.
type slotKey struct {
	level int
	key   int64
}

func keyOf(st overlay.Station) slotKey { return slotKey{level: st.Level, key: st.Key} }

// Entry is one object's record in a station's detection list.
type Entry struct {
	// Child is the next station downward on the object's trail; HasChild
	// is false at the bottom-level proxy slot.
	Child    overlay.Station
	HasChild bool
	// SP is the special parent registered for this entry; SPOK is false
	// near the root, where special parents are undefined.
	SP   overlay.Station
	SPOK bool
	// Version is the move sequence number that stamped this entry.
	Version uint64
}

// slot is the state of one station. An SDL record is a downward shortcut
// to the special child that registered it. sdl is allocated on first
// use, so stations that are never special parents carry no SDL map.
type slot struct {
	station overlay.Station
	dl      map[ObjectID]Entry
	sdl     map[ObjectID]overlay.Station
}

// Hit classifies what a query's probe of a station found.
type Hit uint8

const (
	// Miss: the station holds no record of the object.
	Miss Hit = iota
	// HitDL: the station's detection list holds the object.
	HitDL
	// HitSDL: the station holds a special-parent shortcut to the object.
	HitSDL
)

// slot returns st's slot, materializing it on first use.
func (s *Store) slot(st overlay.Station) *slot {
	k := keyOf(st)
	sl, ok := s.slots[k]
	if !ok {
		if s.slots == nil {
			//motlint:ignore hotalloc lazy one-time materialization of the slot map
			s.slots = make(map[slotKey]*slot)
		}
		//motlint:ignore hotalloc lazy one-time materialization of a station's slot
		sl = &slot{station: st, dl: make(map[ObjectID]Entry)}
		s.slots[k] = sl
	}
	return sl
}

func (s *Store) peek(st overlay.Station) (*slot, bool) {
	sl, ok := s.slots[keyOf(st)]
	return sl, ok
}

// Stamp writes o's entry at st, the station of level l of the stamping
// path, at version ver. The entry points down at child unless l is 0.
// The old entry's SDL registration is withdrawn. The special parent
// offset levels up path (§3, Definition 3) then registers a shortcut
// down to st; there is none when offset ≤ 0 or the level is past the
// root. Stamp returns the new entry.
func (s *Store) Stamp(path overlay.Path, l int, st, child overlay.Station, o ObjectID, ver uint64, offset int) Entry {
	idx := 0
	for i, cand := range path[l] {
		if cand == st {
			idx = i
			break
		}
	}
	e := Entry{Version: ver}
	if l > 0 {
		e.Child, e.HasChild = child, true
	}
	e.SP, e.SPOK = overlay.SpecialParent(path, l, idx, offset)
	sl := s.slot(st)
	if old, ok := sl.dl[o]; ok && old.SPOK {
		s.unregister(old.SP, st, o)
	}
	sl.dl[o] = e
	if e.SPOK {
		sp := s.slot(e.SP)
		if sp.sdl == nil {
			//motlint:ignore hotalloc lazy one-time materialization of a station's SDL
			sp.sdl = make(map[ObjectID]overlay.Station)
		}
		sp.sdl[o] = st
	}
	return e
}

// unregister deletes the SDL entry for o at sp if it was registered by
// child. Registrations can be overwritten by newer fragments of the same
// object's trail, in which case the stale cleanup is a no-op.
func (s *Store) unregister(sp, child overlay.Station, o ObjectID) {
	if sl, ok := s.peek(sp); ok {
		if c, has := sl.sdl[o]; has && c == child {
			delete(sl.sdl, o)
		}
	}
}

// Get returns o's detection-list entry at st.
func (s *Store) Get(st overlay.Station, o ObjectID) (Entry, bool) {
	if sl, ok := s.peek(st); ok {
		e, has := sl.dl[o]
		return e, has
	}
	return Entry{}, false
}

// Probe looks o up at st as a climbing query does: the detection list
// first, then the special detection list. On HitSDL it also returns the
// special child the shortcut leads to.
func (s *Store) Probe(st overlay.Station, o ObjectID) (Hit, overlay.Station) {
	sl, ok := s.peek(st)
	if !ok {
		return Miss, overlay.Station{}
	}
	if _, has := sl.dl[o]; has {
		return HitDL, overlay.Station{}
	}
	if c, has := sl.sdl[o]; has {
		return HitSDL, c
	}
	return Miss, overlay.Station{}
}

// Erase deletes o's detection-list entry at st, withdraws its SDL
// registration, and returns the erased entry.
func (s *Store) Erase(st overlay.Station, o ObjectID) (Entry, bool) {
	sl, ok := s.peek(st)
	if !ok {
		return Entry{}, false
	}
	e, has := sl.dl[o]
	if !has {
		return Entry{}, false
	}
	delete(sl.dl, o)
	if e.SPOK {
		s.unregister(e.SP, st, o)
	}
	return e, true
}

// Wipe erases every DL and SDL record of o. Deletions commute, so the
// sweep order is irrelevant.
func (s *Store) Wipe(o ObjectID) {
	for _, sl := range s.slots {
		delete(sl.dl, o)
		delete(sl.sdl, o)
	}
}

// Stations returns every materialized station in (level, key) order, for
// deterministic sweeps over the store.
func (s *Store) Stations() []overlay.Station {
	out := make([]overlay.Station, 0, len(s.slots))
	for _, sl := range s.slots {
		out = append(out, sl.station)
	}
	slices.SortFunc(out, func(a, b overlay.Station) int {
		if c := cmp.Compare(a.Level, b.Level); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return out
}

// Count returns the total number of DL and SDL entries.
func (s *Store) Count() (dl, sdl int) {
	for _, sl := range s.slots {
		dl += len(sl.dl)
		sdl += len(sl.sdl)
	}
	return dl, sdl
}

// Union returns one store over the slots of stores, which must hold
// disjoint stations (the goroutine runtime's per-node stores). The slots
// are shared, not copied, so the result is a view for quiescent reads.
func Union(stores []Store) *Store {
	u := &Store{slots: make(map[slotKey]*slot)}
	for i := range stores {
		for k, sl := range stores[i].slots {
			u.slots[k] = sl
		}
	}
	return u
}

// trail follows o's stored trail from station st down its child
// pointers, calling visit (when non-nil) on each station holding o, and
// returns the station the walk ended at. ok reports an unbroken trail
// ending in a level-0 slot; a missing entry, a level skip, or visit
// returning false ends the walk early with ok false.
func (s *Store) trail(o ObjectID, st overlay.Station, visit func(overlay.Station) bool) (end overlay.Station, ok bool) {
	for {
		e, has := s.Get(st, o)
		if !has {
			return st, false
		}
		if visit != nil && !visit(st) {
			return st, false
		}
		if !e.HasChild {
			return st, st.Level == 0
		}
		if e.Child.Level != st.Level-1 {
			// Level strictly decreases, so the walk always terminates.
			return st, false
		}
		st = e.Child
	}
}

// Check validates the store's global consistency against the ground
// truth loc (each object's proxy). For every object in loc it checks
// that
//
//   - the root station holds the object,
//   - following child pointers down from the root, one level at a time,
//     reaches a bottom-level station, and that station is the proxy,
//   - every station holding the object is on that trail (no orphaned
//     detection-list entries),
//
// and that every SDL shortcut points at a station that still holds its
// object.
func (s *Store) Check(root overlay.Station, loc map[ObjectID]graph.NodeID) error {
	for o, proxy := range loc {
		if _, ok := s.Get(root, o); !ok {
			return fmt.Errorf("core: invariant: root does not hold object %d", o)
		}
		reach := map[slotKey]bool{}
		end, ok := s.trail(o, root, func(st overlay.Station) bool {
			reach[keyOf(st)] = true
			return true
		})
		if !ok {
			return fmt.Errorf("core: invariant: trail for object %d breaks at %v", o, end)
		}
		if end.Host != proxy {
			return fmt.Errorf("core: invariant: object %d trail ends at %d, proxy is %d", o, end.Host, proxy)
		}
		for k, sl := range s.slots {
			if _, has := sl.dl[o]; has && !reach[k] {
				return fmt.Errorf("core: invariant: orphaned entry for object %d at %v", o, sl.station)
			}
		}
	}
	for _, sl := range s.slots {
		for o, child := range sl.sdl {
			if _, ok := s.Get(child, o); !ok {
				return fmt.Errorf("core: invariant: SDL at %v points to %v which lost object %d", sl.station, child, o)
			}
		}
	}
	return nil
}
