package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs/live"
	"repro/internal/runtime/track"
)

// newTestServer builds a small server and an httptest front for it,
// with both torn down at cleanup (Shutdown first, so the drain sees the
// handlers finish).
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// doJSON posts (or gets, for body == "") and decodes the JSON response.
func doJSON(t testing.TB, method, url, body string, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %v:\n%s", method, url, err, raw)
		}
	}
	return resp
}

func publishBody(obj, node int) string {
	return fmt.Sprintf(`{"object":%d,"node":%d}`, obj, node)
}

func moveBody(obj, to int) string {
	return fmt.Sprintf(`{"object":%d,"to":%d}`, obj, to)
}

// TestServeRoundTrip drives the whole happy path plus every client
// fault through the real mux: publish/move/query against live shards,
// duplicate publishes, unknown objects, malformed bodies, out-of-range
// sensors, and the drill endpoints' 403 when chaos admin is off.
func TestServeRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2, Nodes: 36, Seed: 3})

	var pub publishResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 5), &pub); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}
	if pub.Object != 1 || pub.Node != 5 || pub.Shard < 0 || pub.Shard > 1 {
		t.Fatalf("publish response %+v", pub)
	}

	// Same object again is a client fault, classified 409.
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 7), nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate publish status %d, want 409", resp.StatusCode)
	}

	var mv moveResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(1, 17), &mv); resp.StatusCode != http.StatusOK {
		t.Fatalf("move status %d", resp.StatusCode)
	}
	if mv.Shard != pub.Shard {
		t.Fatalf("move landed on shard %d, publish on %d", mv.Shard, pub.Shard)
	}

	var q queryResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if q.Location != 17 {
		t.Fatalf("query location %d, want 17", q.Location)
	}
	if loc, ok := s.Location(1); !ok || loc != 17 {
		t.Fatalf("direct Location = %d,%v, want 17,true", loc, ok)
	}

	// Distance-sensitive query from an explicit sensor.
	var qf queryResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1?from=17", "", &qf); resp.StatusCode != http.StatusOK {
		t.Fatalf("query?from status %d", resp.StatusCode)
	}
	if qf.Location != 17 {
		t.Fatalf("query?from location %d, want 17", qf.Location)
	}

	// Client faults, each with its contract status.
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"unknown object query", "GET", "/v1/query/999", "", http.StatusNotFound},
		{"move unpublished", "POST", "/v1/move", moveBody(999, 3), http.StatusNotFound},
		{"syntax error", "POST", "/v1/publish", `{"object":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/publish", `{"object":2,"node":1,"bogus":true}`, http.StatusBadRequest},
		{"trailing garbage", "POST", "/v1/move", moveBody(1, 3) + `{"more":1}`, http.StatusBadRequest},
		{"wrong type", "POST", "/v1/move", `{"object":"one","to":3}`, http.StatusBadRequest},
		{"node out of range", "POST", "/v1/publish", publishBody(2, 36), http.StatusBadRequest},
		{"negative node", "POST", "/v1/move", moveBody(1, -1), http.StatusBadRequest},
		{"bad object id", "GET", "/v1/query/not-a-number", "", http.StatusBadRequest},
		{"bad from param", "GET", "/v1/query/1?from=x", "", http.StatusBadRequest},
		{"from out of range", "GET", "/v1/query/1?from=36", "", http.StatusBadRequest},
		{"drills disabled fail", "POST", "/v1/fail/3", "", http.StatusForbidden},
		{"drills disabled recover", "POST", "/v1/recover/3", "", http.StatusForbidden},
		{"bad method", "GET", "/v1/publish", "", http.StatusMethodNotAllowed},
	} {
		resp := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// A malformed move must not have touched the trail.
	var q2 queryResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", &q2); resp.StatusCode != http.StatusOK || q2.Location != 17 {
		t.Fatalf("after rejected moves: status %d location %d, want 200/17", resp.StatusCode, q2.Location)
	}
}

// TestServeShardPartition pins the SplitMix64 partition: a dense object
// range spreads across every shard, and each object consistently lands
// on the same shard across ops.
func TestServeShardPartition(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 4, Nodes: 16, Seed: 1})
	hit := make([]int, 4)
	for o := 0; o < 32; o++ {
		var pub publishResponse
		if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(o, o%16), &pub); resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", o, resp.StatusCode)
		}
		if want := s.shardFor(core.ObjectID(o)).id; pub.Shard != want {
			t.Fatalf("object %d on shard %d, shardFor says %d", o, pub.Shard, want)
		}
		hit[pub.Shard]++
	}
	for i, n := range hit {
		if n == 0 {
			t.Errorf("shard %d got no objects out of a dense 32 (distribution %v)", i, hit)
		}
	}
}

// TestServeCoalescing feeds one batch with a burst of moves for the
// same object through applyBatch directly: the directory sees exactly one
// move (the latest position), superseded requests ack as coalesced, and
// an interleaved second object is untouched by the collapse.
func TestServeCoalescing(t *testing.T) {
	s, _ := newTestServer(t, Config{Shards: 1, Nodes: 36, Seed: 1})
	sh := s.shards[0]
	for o := 1; o <= 2; o++ {
		if err := sh.publish(core.ObjectID(o), 0); err != nil {
			t.Fatal(err)
		}
	}
	opsBefore := sh.live.Snapshot().Total.Count

	mk := func(o, to int) moveReq {
		return moveReq{obj: core.ObjectID(o), to: graph.NodeID(to), done: make(chan moveResult, 1)}
	}
	batch := []moveReq{mk(1, 5), mk(2, 9), mk(1, 11), mk(1, 23)}
	sh.applyBatch(batch)

	wantCoalesced := []bool{true, false, true, false}
	for i, req := range batch {
		res := <-req.done
		if res.err != nil {
			t.Fatalf("batch[%d]: %v", i, res.err)
		}
		if res.coalesced != wantCoalesced[i] {
			t.Errorf("batch[%d] coalesced = %v, want %v", i, res.coalesced, wantCoalesced[i])
		}
	}
	if loc, _ := sh.dir.Location(1); loc != 23 {
		t.Fatalf("object 1 at %d, want the latest queued position 23", loc)
	}
	if loc, _ := sh.dir.Location(2); loc != 9 {
		t.Fatalf("object 2 at %d, want 9", loc)
	}

	// The collapse must be visible at the directory: 4 queued moves, but
	// only 2 maintenance ops recorded (one per object in the batch).
	if got := sh.live.Snapshot().Total.Count - opsBefore; got != 2 {
		t.Fatalf("directory ops for the batch = %d, want 2 (coalesced)", got)
	}
}

// TestServeBackpressure exercises both 429 paths deterministically: a
// saturated inflight window (slot held externally) and a full move
// queue (drain loop stopped, queue stuffed). Both must carry the
// Retry-After hint, count into the rejected meter, and clear once the
// pressure lifts.
func TestServeBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, Nodes: 16, Seed: 1, Inflight: 1, QueueDepth: 1})
	sh := s.shards[0]
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 0), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}

	// Hold the single inflight slot: publish and query must shed.
	if !sh.tryAcquire() {
		t.Fatal("could not take the only slot")
	}
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/publish", publishBody(2, 1)},
		{"GET", "/v1/query/1", ""},
	} {
		resp := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s %s under saturation: status %d, want 429", tc.method, tc.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s: 429 without Retry-After", tc.method, tc.path)
		}
	}
	sh.release()
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after release: status %d", resp.StatusCode)
	}

	// Full move queue: stop the drain loop, stuff the one slot, then a
	// client move must shed instead of blocking.
	sh.stopLoop()
	sh.loops.Wait()
	if _, ok := sh.enqueueMove(1, 2); !ok {
		t.Fatal("stuffing the stopped queue failed")
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(1, 3), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("move into full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("move 429 without Retry-After")
	}
	if got := s.Snapshot().Rejected; got != 3 {
		t.Fatalf("rejected meter = %d, want 3", got)
	}
}

// TestServeChaosDrill runs a fault drill over HTTP: with chaos admin
// on, failing the overlay root makes operations fail with 503 (their
// walk would deliver to a down sensor), and recovery restores service.
func TestServeChaosDrill(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2, Nodes: 16, Seed: 1, ChaosAdmin: true})
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 2), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}

	root := int64(s.Root())
	var drill drillResponse
	if resp := doJSON(t, "POST", fmt.Sprintf("%s/v1/fail/%d", ts.URL, root), "", &drill); resp.StatusCode != http.StatusOK {
		t.Fatalf("fail drill status %d", resp.StatusCode)
	}
	if drill.Action != "fail" || drill.Node != root {
		t.Fatalf("drill response %+v", drill)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query through failed root: status %d, want 503", resp.StatusCode)
	}

	if resp := doJSON(t, "POST", fmt.Sprintf("%s/v1/recover/%d", ts.URL, root), "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recover drill status %d", resp.StatusCode)
	}
	var q queryResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery: status %d", resp.StatusCode)
	}
	if q.Location != 2 {
		t.Fatalf("query after recovery: location %d, want 2", q.Location)
	}

	// Drill endpoints still validate their input.
	if resp := doJSON(t, "POST", ts.URL+"/v1/fail/99", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fail out-of-range: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/fail/abc", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fail bad id: status %d, want 400", resp.StatusCode)
	}
}

// TestServeChaosFaultedMoveAtomic is the faulted-move regression test:
// failing a sensor that hosts a station on a move's insert climb makes
// the move 503 and apply nothing, so after recovery a query from every
// sensor answers the pre-move proxy, agreeing with Location — never a
// stale answer that looks valid. It also pins the goroutine budget: a
// server costs goroutines per shard, not per shard and sensor.
func TestServeChaosFaultedMoveAtomic(t *testing.T) {
	const shards = 2
	before := runtime.NumGoroutine()
	big, err := New(Config{Shards: shards, Nodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	grew := runtime.NumGoroutine() - before
	if err := big.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if grew > 4*shards {
		t.Fatalf("New(%d shards, 1024 nodes) started %d goroutines, want O(shards)", shards, grew)
	}

	s, ts := newTestServer(t, Config{Shards: shards, Nodes: 64, Seed: 1, ChaosAdmin: true})
	const obj, home = 1, graph.NodeID(0)
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(obj, int(home)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}

	// Pick a target whose climb passes, above level 0 and below the
	// level where it meets the published trail, a station hosted on
	// neither end of the move nor the root.
	to, victim := graph.NodeID(-1), graph.NodeID(-1)
	for cand := graph.NodeID(63); cand > home && victim < 0; cand-- {
		for l := 1; l < s.ov.Height(); l++ {
			st := s.ov.HomeStation(cand, l)
			if st == s.ov.HomeStation(home, l) {
				break
			}
			if st.Host != cand && st.Host != home && st.Host != s.Root() {
				to, victim = cand, st.Host
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no climb station off the move's ends and the root on an 8x8 grid")
	}

	if resp := doJSON(t, "POST", fmt.Sprintf("%s/v1/fail/%d", ts.URL, victim), "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fail drill status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(obj, int(to)), nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("move %d -> %d through failed sensor %d: status %d, want 503", home, to, victim, resp.StatusCode)
	}
	// Client faults deliver nothing, so the outage never masks them.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/publish", publishBody(obj, int(to)), http.StatusConflict},
		{"POST", "/v1/move", moveBody(obj+1, int(to)), http.StatusNotFound},
		{"GET", fmt.Sprintf("/v1/query/%d?from=%d", obj+1, to), "", http.StatusNotFound},
	} {
		if resp := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil); resp.StatusCode != tc.want {
			t.Fatalf("%s %s during the outage: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	if resp := doJSON(t, "POST", fmt.Sprintf("%s/v1/recover/%d", ts.URL, victim), "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recover drill status %d", resp.StatusCode)
	}

	expectEverywhere := func(want graph.NodeID) {
		t.Helper()
		if loc, ok := s.Location(obj); !ok || loc != want {
			t.Fatalf("Location = %d,%v, want %d", loc, ok, want)
		}
		if err := s.shardFor(obj).dir.CheckInvariants(); err != nil {
			t.Fatalf("directory invariants: %v", err)
		}
		for from := 0; from < s.Graph().N(); from++ {
			var q queryResponse
			resp := doJSON(t, "GET", fmt.Sprintf("%s/v1/query/%d?from=%d", ts.URL, obj, from), "", &q)
			if resp.StatusCode != http.StatusOK || q.Location != int64(want) {
				t.Fatalf("query from %d: status %d location %d, want 200/%d", from, resp.StatusCode, q.Location, want)
			}
		}
	}
	expectEverywhere(home)

	// With the sensor back, the same move applies in full.
	if resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(obj, int(to)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("move after recovery: status %d", resp.StatusCode)
	}
	expectEverywhere(to)
}

// TestServeOpStatus pins the error-to-status classification: the core
// sentinels are client faults, a delivery failure is a 503, and anything
// else is the server's own fault.
func TestServeOpStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("core: object 1 %w", core.ErrNotPublished), http.StatusNotFound},
		{fmt.Errorf("core: object 1 %w at node 2", core.ErrAlreadyPublished), http.StatusConflict},
		{&chaos.DeliveryError{Op: 1, Hop: 2, Attempts: 1, Dest: 3}, http.StatusServiceUnavailable},
		{fmt.Errorf("shard: %w", &chaos.DeliveryError{Dest: 3}), http.StatusServiceUnavailable},
		{errors.New("core: descent lost object 1"), http.StatusInternalServerError},
	} {
		if got := opStatus(tc.err); got != tc.want {
			t.Errorf("opStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestServeDebugEndpoints reads back the aggregated /debug/serve
// snapshot and each shard's mounted runtime diagnostics.
func TestServeDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Nodes: 16, Seed: 1})
	for o := 0; o < 8; o++ {
		if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(o, o), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", o, resp.StatusCode)
		}
		if resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(o, o+8), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("move %d: status %d", o, resp.StatusCode)
		}
		if resp := doJSON(t, "GET", fmt.Sprintf("%s/v1/query/%d", ts.URL, o), "", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", o, resp.StatusCode)
		}
	}

	var st Status
	if resp := doJSON(t, "GET", ts.URL+"/debug/serve", "", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/serve status %d", resp.StatusCode)
	}
	if st.Shards != 2 || st.Nodes != 16 {
		t.Fatalf("snapshot shape %+v", st)
	}
	if st.Request.Total.Count != 24 {
		t.Fatalf("request count %d, want 24", st.Request.Total.Count)
	}
	if st.OpsPerSec <= 0 || st.UptimeNs <= 0 {
		t.Fatalf("rates unset: ops/sec %.1f uptime %d", st.OpsPerSec, st.UptimeNs)
	}
	if len(st.ShardStatus) != 2 {
		t.Fatalf("shard rows %d, want 2", len(st.ShardStatus))
	}
	var shardOps int64
	for _, row := range st.ShardStatus {
		if row.Label != fmt.Sprintf("serve-shard-%d", row.ID) {
			t.Fatalf("shard row label %q", row.Label)
		}
		if row.QueueDepth != 0 {
			t.Fatalf("shard %d queue depth %d at quiescence", row.ID, row.QueueDepth)
		}
		shardOps += row.Ops
	}
	if shardOps != 24 {
		t.Fatalf("summed shard ops %d, want 24", shardOps)
	}
	for _, class := range []live.Class{live.ClassPublish, live.ClassMove, live.ClassQuery} {
		op := st.Request.Ops[class]
		if op.Count != 8 || op.P50Ns <= 0 || op.P99Ns < op.P50Ns {
			t.Fatalf("request class %s malformed: %+v", op.Class, op)
		}
	}

	// Per-shard diagnostics ride along under /debug/shard/<i>/.
	for i := 0; i < 2; i++ {
		var snap live.Snapshot
		url := fmt.Sprintf("%s/debug/shard/%d/debug/live", ts.URL, i)
		if resp := doJSON(t, "GET", url, "", &snap); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", url, resp.StatusCode)
		}
		if snap.Label != fmt.Sprintf("serve-shard-%d", i) {
			t.Fatalf("shard %d live label %q", i, snap.Label)
		}
		if snap.Total.Count == 0 {
			t.Fatalf("shard %d live count 0", i)
		}
	}

	// expvar mounts once, on the server mux itself.
	var vars map[string]json.RawMessage
	if resp := doJSON(t, "GET", ts.URL+"/debug/vars", "", &vars); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatalf("/debug/vars lacks memstats: %d keys", len(vars))
	}
}

// TestServeShutdownDrain is the SIGTERM-drain contract over a real
// listener: concurrent writers stream moves while the server shuts
// down mid-flight; afterwards every move acknowledged with a 200 must
// be reflected in its object's final location — no lost acks — and the
// server answers nothing further.
func TestServeShutdownDrain(t *testing.T) {
	s, err := New(Config{Shards: 4, Nodes: 36, Seed: 2, QueueDepth: 64, Inflight: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Start()
	defer ts.Close()

	const writers = 8
	lastAcked := make([]int64, writers) // -1 = nothing acked
	var stop atomic.Bool
	var g track.Group
	for w := 0; w < writers; w++ {
		obj := w + 1
		if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(obj, 0), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", obj, resp.StatusCode)
		}
		lastAcked[w] = -1
		g.Go(func() {
			client := &http.Client{Timeout: 5 * time.Second}
			for target := 1; !stop.Load(); target++ {
				to := target % 36
				resp, err := client.Post(ts.URL+"/v1/move", "application/json",
					bytes.NewReader([]byte(moveBody(obj, to))))
				if err != nil {
					return // connection cut by the drain: nothing was acked
				}
				code := resp.StatusCode
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch code {
				case http.StatusOK:
					lastAcked[w] = int64(to)
				case http.StatusTooManyRequests:
					continue // shed, retry next target
				default:
					return // 503 once draining: stop writing
				}
			}
		})
	}

	// Let the writers build up real traffic, then drain mid-flight.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	g.Go(func() { shutdownErr <- s.Shutdown(ctx) })

	// The handler drain covers the httptest server's connections too:
	// its Close waits for outstanding requests, and the draining flag
	// turns everything arriving later into an immediate 503.
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop.Store(true)
	g.Wait()

	// Every acknowledged move is reflected at quiescence.
	acked := 0
	for w := 0; w < writers; w++ {
		if lastAcked[w] < 0 {
			continue
		}
		acked++
		obj := core.ObjectID(w + 1)
		loc, ok := s.Location(obj)
		if !ok {
			t.Fatalf("object %d vanished after drain", obj)
		}
		if int64(loc) != lastAcked[w] {
			t.Fatalf("object %d at %d, last acked move was to %d — lost an acked move",
				obj, loc, lastAcked[w])
		}
	}
	if acked == 0 {
		t.Fatal("no writer got a single ack; the test exercised nothing")
	}

	// Post-drain: the handler refuses new work, and Shutdown stays
	// idempotent with the same answer.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query/1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query status %d, want 503", rec.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServeShutdownWaitsForHandlers pins the drain order when Handler
// is mounted on a server Shutdown does not own: a move handler admitted
// before the drain began must still get its move applied, so Shutdown
// may not stop the drain loops while the handler is in flight (it used
// to, leaving the handler blocked on its ack forever).
func TestServeShutdownWaitsForHandlers(t *testing.T) {
	s, err := New(Config{Shards: 1, Nodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.shards[0].publish(1, 0); err != nil {
		t.Fatal(err)
	}
	body, feed := io.Pipe()
	rec := httptest.NewRecorder()
	handled := make(chan struct{})
	var g track.Group
	g.Go(func() {
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/move", body))
		close(handled)
	})
	// The handler is admitted and reading its body once this write lands.
	if _, err := feed.Write([]byte(`{"object":1,`)); err != nil {
		t.Fatal(err)
	}
	shutdown := make(chan error, 1)
	g.Go(func() { shutdown <- s.Shutdown(context.Background()) })
	select {
	case err := <-shutdown:
		feed.CloseWithError(io.ErrUnexpectedEOF)
		g.Wait()
		t.Fatalf("Shutdown returned (%v) with a move handler in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := feed.Write([]byte(`"to":9}`)); err != nil {
		t.Fatal(err)
	}
	feed.Close()
	<-handled
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	g.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("in-flight move: status %d, want 200", rec.Code)
	}
	if loc, _ := s.Location(1); loc != 9 {
		t.Fatalf("in-flight move acked but object at %d, want 9", loc)
	}
}

// TestRaceServeMixedLoad hammers one server with every op class plus
// debug reads and a shutdown race, for the -race tier: four writer
// groups and two snapshot readers against 2 shards, then Shutdown twice
// concurrently while traffic is still arriving.
func TestRaceServeMixedLoad(t *testing.T) {
	s, err := New(Config{Shards: 2, Nodes: 16, Seed: 5, QueueDepth: 32, Inflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for o := 0; o < 4; o++ {
		if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(o, o), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", o, resp.StatusCode)
		}
	}

	var stop atomic.Bool
	var g track.Group
	for w := 0; w < 4; w++ {
		obj := w
		g.Go(func() {
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 1; !stop.Load(); i++ {
				body := bytes.NewReader([]byte(moveBody(obj, i%16)))
				resp, err := client.Post(ts.URL+"/v1/move", "application/json", body)
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return
				}
				qresp, err := client.Get(fmt.Sprintf("%s/v1/query/%d", ts.URL, obj))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, qresp.Body)
				qresp.Body.Close()
			}
		})
	}
	for r := 0; r < 2; r++ {
		g.Go(func() {
			client := &http.Client{Timeout: 5 * time.Second}
			for !stop.Load() {
				for _, path := range []string{"/debug/serve", "/debug/shard/0/debug/live"} {
					resp, err := client.Get(ts.URL + path)
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		})
	}

	time.Sleep(30 * time.Millisecond)
	var closers track.Group
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		closers.Go(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs[i] = s.Shutdown(ctx)
		})
	}
	closers.Wait()
	stop.Store(true)
	g.Wait()
	if errs[0] != errs[1] {
		t.Fatalf("concurrent Shutdowns disagreed: %v vs %v", errs[0], errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("Shutdown: %v", errs[0])
	}
}
