package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// orderKey is the (at, seq) key the engine promises to execute in: the
// clamped time and the scheduling rank.
type orderKey struct {
	at  float64
	seq int
}

// orderRecorder schedules events on an engine, remembering each one's
// key, and logs the order and the clock at which they run.
type orderRecorder struct {
	e     *Engine
	keys  []orderKey
	ran   []int
	ranAt []float64
}

func (r *orderRecorder) at(t float64, then func()) {
	id := len(r.keys)
	at := t
	if at < r.e.Now() {
		at = r.e.Now()
	}
	r.keys = append(r.keys, orderKey{at, id})
	r.e.At(t, func() {
		r.ran = append(r.ran, id)
		r.ranAt = append(r.ranAt, r.e.Now())
		if then != nil {
			then()
		}
	})
}

// check asserts that every scheduled event ran exactly once, in (at, seq)
// order, at its clamped time.
func (r *orderRecorder) check(t *testing.T) {
	t.Helper()
	for i, id := range r.ran {
		if r.ranAt[i] != r.keys[id].at {
			t.Fatalf("event %d ran at %v, scheduled for %v", id, r.ranAt[i], r.keys[id].at)
		}
	}
	want := make([]int, len(r.keys))
	for i := range want {
		want[i] = i
	}
	slices.SortFunc(want, func(a, b int) int {
		ka, kb := r.keys[a], r.keys[b]
		return cmp.Or(cmp.Compare(ka.at, kb.at), cmp.Compare(ka.seq, kb.seq))
	})
	if !slices.Equal(r.ran, want) {
		t.Fatalf("execution order differs from (at, seq) order:\n got %v\nwant %v", r.ran, want)
	}
}

// Seeded random schedules with equal-time ties, clamped past times,
// callbacks that schedule ahead of and behind the backlog head, and a
// second Run after more At calls: the engine must execute exactly the
// (at, seq) sort of everything it was given.
func TestEngineOrderMatchesReferenceSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := &orderRecorder{e: NewEngine(0)}
		var beforeHead, afterHead, clamped int
		var spawn func(depth int) func()
		spawn = func(depth int) func() {
			if depth == 0 {
				return nil
			}
			return func() {
				for k := rng.Intn(3); k > 0; k-- {
					t := r.e.Now() + float64(rng.Intn(12)-3)
					if t < r.e.Now() {
						clamped++
					}
					if r.e.head < len(r.e.backlog) {
						if head := r.e.backlog[r.e.head].at; t < head {
							beforeHead++
						} else {
							afterHead++
						}
					}
					r.at(t, spawn(depth-1))
				}
			}
		}
		for i := 0; i < 200; i++ {
			r.at(float64(rng.Intn(60)), spawn(3))
		}
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		// A second batch, partly in the past of the first run's clock.
		for i := 0; i < 50; i++ {
			r.at(r.e.Now()+float64(rng.Intn(40)-10), spawn(2))
		}
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		if r.e.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, r.e.Pending())
		}
		if got := r.e.Steps(); got != int64(len(r.keys)) {
			t.Fatalf("seed %d: Steps() = %d, scheduled %d", seed, got, len(r.keys))
		}
		if beforeHead == 0 || afterHead == 0 || clamped == 0 {
			t.Fatalf("seed %d: schedule missed a case: %d before the backlog head, %d after, %d clamped",
				seed, beforeHead, afterHead, clamped)
		}
		r.check(t)
	}
}

// The step limit stops a Run without losing or reordering anything: the
// event that would exceed it stays pending, and later Runs (with more
// At calls in between) resume in (at, seq) order.
func TestEngineStepLimitKeepsOrder(t *testing.T) {
	const limit = 25
	rng := rand.New(rand.NewSource(7))
	r := &orderRecorder{e: NewEngine(limit)}
	var chain func()
	chain = func() {
		if rng.Intn(2) == 0 {
			r.at(r.e.Now()+float64(rng.Intn(5)), nil)
		}
	}
	for i := 0; i < 40; i++ {
		r.at(float64(rng.Intn(20)), chain)
	}
	if err := r.e.Run(); err == nil {
		t.Fatal("step limit not reported")
	}
	if len(r.ran) != limit || r.e.Steps() != limit {
		t.Fatalf("ran %d events (Steps %d) before the limit, want %d", len(r.ran), r.e.Steps(), limit)
	}
	if got, want := r.e.Pending(), len(r.keys)-len(r.ran); got != want {
		t.Fatalf("Pending() = %d after the limit, want %d", got, want)
	}
	for i := 0; i < 10; i++ {
		r.at(float64(rng.Intn(30)), chain)
	}
	for runs := 0; ; runs++ {
		if runs > 10 {
			t.Fatal("engine never drained")
		}
		if err := r.e.Run(); err == nil {
			break
		}
		if got, want := r.e.Pending(), len(r.keys)-len(r.ran); got != want {
			t.Fatalf("Pending() = %d, want %d", got, want)
		}
	}
	if r.e.Pending() != 0 || len(r.ran) != len(r.keys) {
		t.Fatalf("ran %d of %d events, %d pending", len(r.ran), len(r.keys), r.e.Pending())
	}
	r.check(t)
}
