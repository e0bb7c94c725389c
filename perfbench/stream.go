package main

// The op generator. Every serve workload is one global stream of
// directory operations derived on the fly from the workload seed: the
// generator holds one position (and one waypoint) per object and never
// materialises the stream, so its memory is O(objects) whatever the run
// length and peak RSS measures the server, not the generator.

// OpKind is the class of one generated operation.
type OpKind uint8

const (
	OpMove OpKind = iota
	OpQuery
)

func (k OpKind) String() string {
	if k == OpMove {
		return "move"
	}
	return "query"
}

// Op is one directory operation. For a move, Node is the object's new
// sensor (always adjacent to its previous one); for a query, Node is
// the sensor the query issues from.
type Op struct {
	Kind OpKind
	Obj  int
	Node int
}

// Mobility selects how objects move.
type Mobility uint8

const (
	// RandomWalk moves an object to a uniformly chosen grid neighbour.
	RandomWalk Mobility = iota
	// RandomWaypoint walks an object one hop at a time along a shortest
	// grid path towards a uniformly chosen waypoint, then picks the
	// next waypoint.
	RandomWaypoint
)

// StreamSpec fixes a workload's traffic shape; the seed picks the
// instance.
type StreamSpec struct {
	W, H       int // grid dimensions, as graph.NearSquareGrid lays them out
	Objects    int
	QueryShare float64 // fraction of ops that are queries
	Mobility   Mobility
}

// rng is SplitMix64: tiny, fast, and fully determined by its seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Stream generates a workload's global op sequence. Next assumes every
// move it returns is applied, so the stream's positions are the ground
// truth a correct server must agree with.
type Stream struct {
	spec StreamSpec
	r    rng
	pos  []int32
	wp   []int32
}

// NewStream seeds a stream and places every object on a uniformly
// chosen sensor.
func NewStream(spec StreamSpec, seed int64) *Stream {
	s := &Stream{
		spec: spec,
		r:    rng{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019},
		pos:  make([]int32, spec.Objects),
	}
	n := spec.W * spec.H
	for o := range s.pos {
		s.pos[o] = int32(s.r.intn(n))
	}
	if spec.Mobility == RandomWaypoint {
		s.wp = make([]int32, spec.Objects)
		copy(s.wp, s.pos)
	}
	return s
}

// Pos returns object o's position after every op generated so far.
func (s *Stream) Pos(o int) int { return int(s.pos[o]) }

// Next generates the next op of the global stream.
func (s *Stream) Next() Op {
	o := s.r.intn(s.spec.Objects)
	if s.r.float() < s.spec.QueryShare {
		return Op{Kind: OpQuery, Obj: o, Node: s.r.intn(s.spec.W * s.spec.H)}
	}
	var to int
	if s.spec.Mobility == RandomWaypoint {
		to = s.waypointStep(o)
	} else {
		to = s.neighbour(int(s.pos[o]))
	}
	s.pos[o] = int32(to)
	return Op{Kind: OpMove, Obj: o, Node: to}
}

// neighbour picks a uniform grid neighbour of u (node (x, y) is
// y*W + x).
func (s *Stream) neighbour(u int) int {
	w, h := s.spec.W, s.spec.H
	x, y := u%w, u/w
	var cand [4]int
	k := 0
	if x > 0 {
		cand[k] = u - 1
		k++
	}
	if x+1 < w {
		cand[k] = u + 1
		k++
	}
	if y > 0 {
		cand[k] = u - w
		k++
	}
	if y+1 < h {
		cand[k] = u + w
		k++
	}
	return cand[s.r.intn(k)]
}

// waypointStep moves o one hop along a shortest grid path to its
// waypoint, drawing a new waypoint first when it has arrived.
func (s *Stream) waypointStep(o int) int {
	w := s.spec.W
	n := w * s.spec.H
	u := int(s.pos[o])
	for int(s.wp[o]) == u {
		s.wp[o] = int32(s.r.intn(n))
	}
	x, y := u%w, u/w
	tx, ty := int(s.wp[o])%w, int(s.wp[o])/w
	stepX := tx != x
	if tx != x && ty != y {
		stepX = s.r.next()&1 == 0
	}
	switch {
	case stepX && tx > x:
		return u + 1
	case stepX:
		return u - 1
	case ty > y:
		return u + w
	default:
		return u - w
	}
}

// Owner is the client that replays object o: clients own disjoint
// object sets, so each object's ops keep their stream order.
func Owner(o, clients int) int { return o % clients }

// ClientStream is one client's view of the global stream: the same
// generator, filtered to the objects the client owns. Every client runs
// its own copy of the generator, so the partition costs no shared state
// and no buffering.
type ClientStream struct {
	s       *Stream
	client  int
	clients int
	idx     int // global index of the next op the generator will produce
}

// NewClientStream returns client c's share of the stream.
func NewClientStream(spec StreamSpec, seed int64, c, clients int) *ClientStream {
	return &ClientStream{s: NewStream(spec, seed), client: c, clients: clients}
}

// Next returns the client's next op whose global index is below end,
// with that index; ok is false once the stream reaches end.
func (cs *ClientStream) Next(end int) (op Op, idx int, ok bool) {
	for cs.idx < end {
		op := cs.s.Next()
		cs.idx++
		if Owner(op.Obj, cs.clients) == cs.client {
			return op, cs.idx - 1, true
		}
	}
	return Op{}, 0, false
}

// Pos returns object o's generator position.
func (cs *ClientStream) Pos(o int) int { return cs.s.Pos(o) }
