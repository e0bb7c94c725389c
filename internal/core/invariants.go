package core

// CheckInvariants validates the directory's global consistency (see
// Store.Check); it is used by tests and by the simulators after
// quiescence.
func (d *Directory) CheckInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.Check(d.ov.Root(), d.loc)
}

// LoadByNode returns, for each physical node 0..n-1, the number of object
// and bookkeeping entries (detection-list entries, SDL entries, and proxied
// objects) it stores under the configured placement — the paper's load
// metric (§5, Figs. 8–11).
func (d *Directory) LoadByNode(n int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	counts := make([]int, n)
	for _, s := range d.store.slots {
		spread := d.distributed(s.station)
		bump := func(o ObjectID) {
			host := s.station.Host
			if spread {
				host = d.cfg.Placement.Place(s.station, o)
			}
			if int(host) >= 0 && int(host) < n {
				counts[host]++
			}
		}
		for o := range s.dl {
			bump(o)
		}
		for o := range s.sdl {
			bump(o)
		}
	}
	return counts
}

// SlotCount returns the number of materialized directory slots.
func (d *Directory) SlotCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.store.slots)
}

// EntryCount returns the total number of DL and SDL entries.
func (d *Directory) EntryCount() (dl, sdl int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.Count()
}
