package core

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/overlay"
)

// station returns the station (level, key), hosted on a node derived
// from both so that equal (level, key) pairs always carry equal hosts.
func station(level int, key int64) overlay.Station {
	return overlay.Station{Level: level, Key: key, Host: graph.NodeID((int64(level)*31 + key) & 63)}
}

// stampAt stamps o at st with a one-station path per level up to st.
func stampAt(s *Store, st overlay.Station, o ObjectID) {
	path := make(overlay.Path, st.Level+1)
	path[st.Level] = []overlay.Station{st}
	s.Stamp(path, st.Level, st, overlay.Station{}, o, 1, 0)
}

// checkRows asserts that every row spans at most min(0, lowest key) to
// its highest key and that the slot list holds exactly the row slots.
func checkRows(t *testing.T, s *Store) {
	t.Helper()
	listed := 0
	for l, r := range s.rows {
		if len(r.at) == 0 {
			continue
		}
		lo, hi, found := int64(0), int64(0), false
		for i, j := range r.at {
			if j == 0 {
				continue
			}
			sl := s.slots[j-1]
			listed++
			k := r.base + int64(i)
			if sl.station.Level != l || sl.station.Key != k {
				t.Fatalf("row %d cell %d holds %v", l, k, sl.station)
			}
			if !found {
				lo, found = k, true
			}
			hi = k
		}
		if !found {
			t.Fatalf("row %d is non-empty but holds no slot", l)
		}
		if r.base < min(0, lo) || r.base+int64(len(r.at))-1 != hi {
			t.Fatalf("row %d spans [%d, %d], keys span [%d, %d]", l, r.base, r.base+int64(len(r.at))-1, lo, hi)
		}
	}
	if listed != len(s.slots) {
		t.Fatalf("rows hold %d slots, the list %d", listed, len(s.slots))
	}
}

func TestStoreRowGrowth(t *testing.T) {
	var s Store
	keys := []int64{40, 41, 45, 39, 30, 2, 44, 60, 0, 59}
	for i, k := range keys {
		stampAt(&s, station(0, k), ObjectID(i))
		checkRows(t, &s)
		for j, k2 := range keys[:i+1] {
			if e, ok := s.Get(station(0, k2), ObjectID(j)); !ok || e.Version != 1 {
				t.Fatalf("after key %d: key %d lost object %d", k, k2, j)
			}
		}
	}
	if r := s.rows[0]; r.base != 0 || len(r.at) != 61 {
		t.Fatalf("row spans base %d, len %d; want 0, 61", r.base, len(r.at))
	}
	for _, k := range []int64{-1, 1, 29, 31, 46, 58, 61, 1 << 40} {
		if _, ok := s.peek(station(0, k)); ok {
			t.Fatalf("key %d found without being stamped", k)
		}
		if h, _ := s.Probe(station(0, k), 0); h != Miss {
			t.Fatalf("key %d probed %v", k, h)
		}
	}
	// The first key of a row is its base, not 0.
	var one Store
	stampAt(&one, station(2, 1000), 1)
	if r := one.rows[2]; r.base != 1000 || len(r.at) != 1 {
		t.Fatalf("one-key row spans base %d, len %d", r.base, len(r.at))
	}
	// A negative key moves the base below 0.
	stampAt(&one, station(2, -3), 2)
	checkRows(t, &one)
	if _, ok := one.Get(station(2, 1000), 1); !ok {
		t.Fatal("key 1000 lost after a negative key grew the row")
	}
}

// A node store of the goroutine runtime holds one key per level, so its
// rows are one entry long; levels it never stamps stay empty.
func TestStoreSparseLevels(t *testing.T) {
	var s Store
	for _, l := range []int{0, 3, 7} {
		stampAt(&s, station(l, 17), ObjectID(l))
	}
	checkRows(t, &s)
	if len(s.rows) != 8 {
		t.Fatalf("%d rows, want 8", len(s.rows))
	}
	for l, r := range s.rows {
		want := 0
		if l == 0 || l == 3 || l == 7 {
			want = 1
		}
		if len(r.at) != want {
			t.Fatalf("row %d has %d entries, want %d", l, len(r.at), want)
		}
		if _, ok := s.Get(station(l, 17), ObjectID(l)); ok != (want == 1) {
			t.Fatalf("level %d: Get = %t", l, ok)
		}
	}
	for _, l := range []int{-1, 8, 100} {
		if _, ok := s.Get(station(l, 17), 0); ok {
			t.Fatalf("level %d found", l)
		}
	}
	want := []overlay.Station{station(0, 17), station(3, 17), station(7, 17)}
	if got := s.Stations(); !slices.Equal(got, want) {
		t.Fatalf("Stations = %v, want %v", got, want)
	}
}

// Union over disjoint per-host stores, fed in either order so its rows
// grow at both ends, is the same store as the one it was split from.
func TestStoreUnionOfHostStores(t *testing.T) {
	d, g := buildDir(t, 7, 7, hier.Config{Seed: 2, UseParentSets: true, SpecialParentOffset: 2}, Config{})
	rng := rand.New(rand.NewSource(5))
	for o := ObjectID(0); o < 6; o++ {
		if err := d.Publish(o, graph.NodeID(rng.Intn(g.N()))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if err := d.Move(ObjectID(rng.Intn(6)), graph.NodeID(rng.Intn(g.N()))); err != nil {
			t.Fatal(err)
		}
	}
	stores := make([]Store, g.N())
	for _, sl := range d.store.slots {
		h := &stores[sl.station.Host]
		c := h.slot(sl.station)
		c.dl, c.sdl = sl.dl, sl.sdl
	}
	root := d.ov.Root()
	wantDL, wantSDL := d.store.Count()
	if wantSDL == 0 {
		t.Fatal("workload registered no special parents")
	}
	for _, reversed := range []bool{false, true} {
		in := slices.Clone(stores)
		if reversed {
			slices.Reverse(in)
		}
		u := Union(in)
		checkRows(t, u)
		if err := u.Check(root, d.loc); err != nil {
			t.Fatalf("reversed=%t: %v", reversed, err)
		}
		if dl, sdl := u.Count(); dl != wantDL || sdl != wantSDL {
			t.Fatalf("reversed=%t: Count = %d, %d; want %d, %d", reversed, dl, sdl, wantDL, wantSDL)
		}
		if got, want := u.Stations(), d.store.Stations(); !slices.Equal(got, want) {
			t.Fatalf("reversed=%t: Stations differ", reversed)
		}
	}
	// The union is a view: a corruption in one host store shows in it.
	sl, _ := stores[root.Host].peek(root)
	delete(sl.dl, 3)
	if err := Union(stores).Check(root, d.loc); err == nil {
		t.Fatal("union check missed a removed root entry")
	}
}

// refStore is the map-keyed station store the row index replaced, kept
// as the reference the row index must agree with.
type refStore struct {
	slots map[refKey]*refSlot
}

type refKey struct {
	level int
	key   int64
}

type refSlot struct {
	station overlay.Station
	dl      map[ObjectID]Entry
	sdl     map[ObjectID]overlay.Station
}

func (s *refStore) slot(st overlay.Station) *refSlot {
	k := refKey{st.Level, st.Key}
	sl, ok := s.slots[k]
	if !ok {
		sl = &refSlot{station: st, dl: map[ObjectID]Entry{}, sdl: map[ObjectID]overlay.Station{}}
		s.slots[k] = sl
	}
	return sl
}

func (s *refStore) peek(st overlay.Station) *refSlot { return s.slots[refKey{st.Level, st.Key}] }

func (s *refStore) stamp(path overlay.Path, l int, st, child overlay.Station, o ObjectID, ver uint64, offset int) Entry {
	idx := slices.Index(path[l], st)
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
		s.slot(e.SP).sdl[o] = st
	}
	return e
}

func (s *refStore) unregister(sp, child overlay.Station, o ObjectID) {
	if sl := s.peek(sp); sl != nil && sl.sdl[o] == child {
		delete(sl.sdl, o)
	}
}

func (s *refStore) get(st overlay.Station, o ObjectID) (Entry, bool) {
	if sl := s.peek(st); sl != nil {
		e, ok := sl.dl[o]
		return e, ok
	}
	return Entry{}, false
}

func (s *refStore) probe(st overlay.Station, o ObjectID) (Hit, overlay.Station) {
	sl := s.peek(st)
	if sl == nil {
		return Miss, overlay.Station{}
	}
	if _, ok := sl.dl[o]; ok {
		return HitDL, overlay.Station{}
	}
	if c, ok := sl.sdl[o]; ok {
		return HitSDL, c
	}
	return Miss, overlay.Station{}
}

func (s *refStore) erase(st overlay.Station, o ObjectID) (Entry, bool) {
	sl := s.peek(st)
	if sl == nil {
		return Entry{}, false
	}
	e, ok := sl.dl[o]
	if !ok {
		return Entry{}, false
	}
	delete(sl.dl, o)
	if e.SPOK {
		s.unregister(e.SP, st, o)
	}
	return e, true
}

func (s *refStore) wipe(o ObjectID) {
	for _, sl := range s.slots {
		delete(sl.dl, o)
		delete(sl.sdl, o)
	}
}

func (s *refStore) count() (dl, sdl int) {
	for _, sl := range s.slots {
		dl += len(sl.dl)
		sdl += len(sl.sdl)
	}
	return dl, sdl
}

func (s *refStore) stations() []overlay.Station {
	var out []overlay.Station
	for _, sl := range s.slots {
		out = append(out, sl.station)
	}
	slices.SortFunc(out, func(a, b overlay.Station) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Key, b.Key))
	})
	return out
}

// keySpans are the key ranges of the differential test's levels: a row
// starting at 0, one crossing 0, one far from 0, a wide sparse one, a
// narrow one, and the empty levels 2 and 4 between them.
var keySpans = [][2]int64{0: {0, 48}, 1: {-16, 16}, 3: {100, 140}, 5: {0, 1000}, 6: {7, 9}}

func randStation(rng *rand.Rand, l int) overlay.Station {
	if l < 0 || l >= len(keySpans) || keySpans[l] == [2]int64{} {
		return station(l, rng.Int63n(50)-5)
	}
	lo, hi := keySpans[l][0], keySpans[l][1]
	return station(l, lo+rng.Int63n(hi-lo))
}

// TestStoreMatchesMapReference drives the row-indexed store and the
// map-keyed reference with the same seeded random Stamp, Get, Probe,
// Erase, Wipe, Count and Stations calls, and requires equal answers after
// every call.
func TestStoreMatchesMapReference(t *testing.T) {
	levels := []int{0, 1, 3, 5, 6}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Store
		ref := &refStore{slots: map[refKey]*refSlot{}}
		pick := func() overlay.Station {
			if rng.Intn(10) == 0 {
				return randStation(rng, []int{-1, 2, 4, 7, 9}[rng.Intn(5)])
			}
			return randStation(rng, levels[rng.Intn(len(levels))])
		}
		for step := 0; step < 1500; step++ {
			o := ObjectID(rng.Intn(6))
			switch op := rng.Intn(20); {
			case op < 8:
				path := make(overlay.Path, 7)
				for _, l := range levels {
					for k := rng.Intn(3) + 1; k > 0; k-- {
						path[l] = append(path[l], randStation(rng, l))
					}
				}
				l := levels[rng.Intn(len(levels))]
				st := path[l][rng.Intn(len(path[l]))]
				child := randStation(rng, max(l-1, 0))
				ver, offset := uint64(step), rng.Intn(4)
				got := s.Stamp(path, l, st, child, o, ver, offset)
				if want := ref.stamp(path, l, st, child, o, ver, offset); got != want {
					t.Fatalf("seed %d step %d: Stamp = %+v, want %+v", seed, step, got, want)
				}
			case op < 11:
				st := pick()
				e, ok := s.Get(st, o)
				if we, wok := ref.get(st, o); e != we || ok != wok {
					t.Fatalf("seed %d step %d: Get(%v, %d) = %+v %t, want %+v %t", seed, step, st, o, e, ok, we, wok)
				}
			case op < 14:
				st := pick()
				h, c := s.Probe(st, o)
				if wh, wc := ref.probe(st, o); h != wh || c != wc {
					t.Fatalf("seed %d step %d: Probe(%v, %d) = %v %v, want %v %v", seed, step, st, o, h, c, wh, wc)
				}
			case op < 17:
				st := pick()
				e, ok := s.Erase(st, o)
				if we, wok := ref.erase(st, o); e != we || ok != wok {
					t.Fatalf("seed %d step %d: Erase(%v, %d) = %+v %t, want %+v %t", seed, step, st, o, e, ok, we, wok)
				}
			case op == 17:
				s.Wipe(o)
				ref.wipe(o)
			case op == 18:
				dl, sdl := s.Count()
				if wdl, wsdl := ref.count(); dl != wdl || sdl != wsdl {
					t.Fatalf("seed %d step %d: Count = %d, %d, want %d, %d", seed, step, dl, sdl, wdl, wsdl)
				}
			default:
				if got, want := s.Stations(), ref.stations(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Stations = %v, want %v", seed, step, got, want)
				}
			}
		}
		dl, sdl := s.Count()
		if wdl, wsdl := ref.count(); dl != wdl || sdl != wsdl {
			t.Fatalf("seed %d: final Count = %d, %d, want %d, %d", seed, dl, sdl, wdl, wsdl)
		}
		checkRows(t, &s)
	}
}

// Check reports the same violation on every call: objects in ascending
// ID order, orphans and stale shortcuts in slot-list order.
func TestStoreCheckErrorIsDeterministic(t *testing.T) {
	corruptions := map[string]func(d *Directory){
		"two roots": func(d *Directory) {
			s, _ := d.store.peek(d.ov.Root())
			delete(s.dl, 2)
			delete(s.dl, 5)
		},
		"two orphans": func(d *Directory) {
			d.store.slot(station(1, 901)).dl[3] = Entry{}
			d.store.slot(station(1, 900)).dl[3] = Entry{}
			d.store.slot(station(1, 800)).dl[4] = Entry{}
		},
		"two stale shortcuts": func(d *Directory) {
			d.store.slot(d.ov.Root()).sdl = map[ObjectID]overlay.Station{6: station(1, 700), 1: station(1, 701)}
		},
	}
	wants := map[string]string{
		"two roots":           "core: invariant: root does not hold object 2",
		"two orphans":         "core: invariant: orphaned entry for object 3 at " + station(1, 901).String(),
		"two stale shortcuts": "points to " + station(1, 701).String() + " which lost object 1",
	}
	for name, corrupt := range corruptions {
		d, _ := buildDir(t, 6, 6, hier.Config{Seed: 3, SpecialParentOffset: 2}, Config{})
		for o := ObjectID(1); o <= 6; o++ {
			if err := d.Publish(o, graph.NodeID(5*o)); err != nil {
				t.Fatal(err)
			}
		}
		corrupt(d)
		first := d.CheckInvariants()
		if first == nil || !strings.Contains(first.Error(), wants[name]) {
			t.Fatalf("%s: first error %v, want %q", name, first, wants[name])
		}
		for i := 0; i < 20; i++ {
			if err := d.CheckInvariants(); err == nil || err.Error() != first.Error() {
				t.Fatalf("%s: call %d reported %v, first %v", name, i, err, first)
			}
		}
	}
}
