package core

import (
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
// A Store addresses its stations without hashing. Every slot is listed
// once in materialization order, and the sweeps (Wipe, Count, Union,
// Check, and the Directory's DropHost, StaleObjects and LoadByNode) walk
// that list. Station keys are dense per level — node IDs on HS, cluster
// labels on the partition hierarchy — so each level has a row of list
// positions indexed by key − base, grown at either end when a key falls
// outside it.
//
// A Store is not safe for concurrent use. The zero value is empty and
// ready to use.
type Store struct {
	rows  []row   // rows[level]
	slots []*slot // every slot, in materialization order
	spare []slot  // the unused tail of the newest slot chunk
}

// row indexes one level's slots: at[i] is 1 + the slots-list position of
// key base+i, 0 where no station of that key has been materialized.
// Positions rather than pointers halve the row and keep it out of the
// garbage collector's scan.
type row struct {
	base int64
	at   []int32
}

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
	if sl, ok := s.peek(st); ok {
		return sl
	}
	if len(s.spare) == 0 {
		// Chunks double with the store up to 256 slots, so a store of n
		// slots pays O(log n + n/256) slot allocations, not n.
		//motlint:ignore hotalloc amortized: one chunk per doubling of the store
		s.spare = make([]slot, min(max(len(s.slots), 1), 256))
	}
	sl := &s.spare[0]
	s.spare = s.spare[1:]
	//motlint:ignore hotalloc lazy one-time materialization of a station's DL
	sl.station, sl.dl = st, make(map[ObjectID]Entry)
	s.list(st, sl)
	return sl
}

func (s *Store) peek(st overlay.Station) (*slot, bool) {
	if uint(st.Level) >= uint(len(s.rows)) {
		return nil, false
	}
	r := &s.rows[st.Level]
	i := st.Key - r.base
	if uint64(i) >= uint64(len(r.at)) || r.at[i] == 0 {
		return nil, false
	}
	return s.slots[r.at[i]-1], true
}

// list appends sl, the slot of st, to the slot list and indexes it.
func (s *Store) list(st overlay.Station, sl *slot) {
	//motlint:ignore hotalloc the slot list grows once per materialized slot
	s.slots = append(s.slots, sl)
	*s.cell(st) = int32(len(s.slots))
}

// cell returns st's position in its level's row, growing the row to
// cover st.Key. A row's first key sets its base, so a store holding one
// key per level has one-entry rows. Past the end the row grows by
// append; below the base it grows by at least its length, but never to
// a base under 0 unless a key is negative. A row therefore spans at most
// its level's key range, from min(0, lowest key) to the highest key, and
// growth is amortized in any order of non-negative keys, which is what
// every overlay issues.
func (s *Store) cell(st overlay.Station) *int32 {
	if st.Level >= len(s.rows) {
		//motlint:ignore hotalloc a level's row is materialized once
		s.rows = append(s.rows, make([]row, st.Level+1-len(s.rows))...)
	}
	r := &s.rows[st.Level]
	switch n := int64(len(r.at)); {
	case n == 0:
		r.base = st.Key
		//motlint:ignore hotalloc a level's row is materialized once
		r.at = make([]int32, 1)
	case st.Key < r.base:
		base := min(st.Key, max(r.base-n, 0))
		//motlint:ignore hotalloc amortized growth of a level's row
		at := make([]int32, r.base-base+n)
		copy(at[r.base-base:], r.at)
		r.base, r.at = base, at
	case st.Key-r.base >= n:
		//motlint:ignore hotalloc amortized growth of a level's row
		r.at = append(r.at, make([]int32, st.Key-r.base+1-n)...)
	}
	return &r.at[st.Key-r.base]
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
// deterministic sweeps over the store: the rows already hold them in
// that order.
func (s *Store) Stations() []overlay.Station {
	out := make([]overlay.Station, 0, len(s.slots))
	for _, r := range s.rows {
		for _, i := range r.at {
			if i != 0 {
				out = append(out, s.slots[i-1].station)
			}
		}
	}
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
	u := &Store{}
	for i := range stores {
		for _, sl := range stores[i].slots {
			u.list(sl.station, sl)
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
	// Objects in ascending ID order and slots in list order, so a given
	// corrupted store always reports the same violation.
	objs := make([]ObjectID, 0, len(loc))
	for o := range loc {
		objs = append(objs, o)
	}
	slices.Sort(objs)
	for _, o := range objs {
		if _, ok := s.Get(root, o); !ok {
			return fmt.Errorf("core: invariant: root does not hold object %d", o)
		}
		reach := map[*slot]bool{}
		end, ok := s.trail(o, root, func(st overlay.Station) bool {
			sl, _ := s.peek(st)
			reach[sl] = true
			return true
		})
		if !ok {
			return fmt.Errorf("core: invariant: trail for object %d breaks at %v", o, end)
		}
		if proxy := loc[o]; end.Host != proxy {
			return fmt.Errorf("core: invariant: object %d trail ends at %d, proxy is %d", o, end.Host, proxy)
		}
		for _, sl := range s.slots {
			if _, has := sl.dl[o]; has && !reach[sl] {
				return fmt.Errorf("core: invariant: orphaned entry for object %d at %v", o, sl.station)
			}
		}
	}
	for _, sl := range s.slots {
		bad, found := ObjectID(0), false
		for o, child := range sl.sdl {
			if _, ok := s.Get(child, o); !ok && (!found || o < bad) {
				bad, found = o, true
			}
		}
		if found {
			return fmt.Errorf("core: invariant: SDL at %v points to %v which lost object %d", sl.station, sl.sdl[bad], bad)
		}
	}
	return nil
}
