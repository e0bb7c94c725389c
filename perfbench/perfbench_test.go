package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

var testSpec = StreamSpec{W: 16, H: 16, Objects: 64, QueryShare: 0.3, Mobility: RandomWalk}

func TestSameSeedSameStream(t *testing.T) {
	for _, mob := range []Mobility{RandomWalk, RandomWaypoint} {
		spec := testSpec
		spec.Mobility = mob
		a, b, c := NewStream(spec, 42), NewStream(spec, 42), NewStream(spec, 43)
		differs := false
		for i := 0; i < 5000; i++ {
			x, y, z := a.Next(), b.Next(), c.Next()
			if x != y {
				t.Fatalf("mobility %d op %d: %+v vs %+v from the same seed", mob, i, x, y)
			}
			differs = differs || x != z
		}
		if !differs {
			t.Fatalf("mobility %d: seeds 42 and 43 gave the same stream", mob)
		}
	}
}

func TestMovesAreOneGridHop(t *testing.T) {
	for _, mob := range []Mobility{RandomWalk, RandomWaypoint} {
		spec := testSpec
		spec.Mobility = mob
		s := NewStream(spec, 7)
		pos := make([]int, spec.Objects)
		for o := range pos {
			pos[o] = s.Pos(o)
		}
		for i := 0; i < 5000; i++ {
			op := s.Next()
			if op.Kind != OpMove {
				continue
			}
			from, to := pos[op.Obj], op.Node
			dx, dy := from%spec.W-to%spec.W, from/spec.W-to/spec.W
			if dx*dx+dy*dy != 1 {
				t.Fatalf("mobility %d op %d: object %d jumped %d -> %d", mob, i, op.Obj, from, to)
			}
			pos[op.Obj] = to
		}
	}
}

func TestPartitionKeepsPerObjectOrder(t *testing.T) {
	const ops, clients = 4000, 3
	global := map[int][]Op{}
	s := NewStream(testSpec, 9)
	for i := 0; i < ops; i++ {
		op := s.Next()
		global[op.Obj] = append(global[op.Obj], op)
	}
	seen := 0
	parted := map[int][]Op{}
	for c := 0; c < clients; c++ {
		cs := NewClientStream(testSpec, 9, c, clients)
		last := -1
		for {
			op, idx, ok := cs.Next(ops)
			if !ok {
				break
			}
			if Owner(op.Obj, clients) != c {
				t.Fatalf("client %d got object %d owned by client %d", c, op.Obj, Owner(op.Obj, clients))
			}
			if idx <= last {
				t.Fatalf("client %d: global index %d after %d", c, idx, last)
			}
			last = idx
			parted[op.Obj] = append(parted[op.Obj], op)
			seen++
		}
	}
	if seen != ops {
		t.Fatalf("clients replayed %d ops, stream has %d", seen, ops)
	}
	for o, want := range global {
		got := parted[o]
		if len(got) != len(want) {
			t.Fatalf("object %d: %d ops after partition, %d before", o, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("object %d op %d: %+v after partition, %+v before", o, i, got[i], want[i])
			}
		}
	}
}

func TestCheckerFlagsWrongAnswers(t *testing.T) {
	ok := []byte(`{"object":5,"location":12,"cost":3,"shard":1}`)
	if _, err := checkQuery(200, ok, 5, 12); err != nil {
		t.Fatalf("correct answer flagged: %v", err)
	}
	if _, err := checkQuery(200, ok, 5, 13); err == nil {
		t.Fatal("wrong location not flagged")
	}
	if _, err := checkQuery(200, ok, 6, 12); err == nil {
		t.Fatal("answer for another object not flagged")
	}
	busy := []byte(`{"error":"shard inflight window full"}`)
	if _, err := checkQuery(429, busy, 5, 12); err == nil {
		t.Fatal("429 query not flagged")
	}
	if _, err := checkMove(429, busy, 5, 12); err == nil {
		t.Fatal("429 move not flagged")
	}
	if _, err := checkMove(503, []byte(`{"error":"server draining"}`), 5, 12); err == nil {
		t.Fatal("503 move not flagged")
	}
	if _, err := checkMove(200, []byte(`{"object":5,"to":12,"shard":0}`), 5, 12); err != nil {
		t.Fatalf("correct move ack flagged: %v", err)
	}
	if c, err := checkMove(200, []byte(`{"object":5,"to":12,"shard":0,"coalesced":true}`), 5, 12); err != nil || !c {
		t.Fatalf("coalesced ack read as coalesced=%v err=%v", c, err)
	}
	if _, err := checkMove(200, []byte(`{"object":5,"to":11,"shard":0}`), 5, 12); err == nil {
		t.Fatal("move ack for another position not flagged")
	}
}

func TestFailureMakesRunFail(t *testing.T) {
	workloads["always-wrong"] = func(io.Writer, options) (*runOutcome, error) {
		v := map[string]float64{}
		for _, d := range e2eMetrics {
			v[d.name] = 1
		}
		return &runOutcome{values: v, attempted: 10, failed: 1}, nil
	}
	defer delete(workloads, "always-wrong")
	var out bytes.Buffer
	if err := run(&out, options{workload: "always-wrong", seconds: 1}); err == nil {
		t.Fatal("a run with a failed op succeeded")
	}
	res := lastResult(t, out.String())
	if res.Correct || res.Failed != 1 {
		t.Fatalf("result %+v, want correct=false failed=1", res)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("bad metric name or unit %q %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("bad workload name %q", name)
		}
	}
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, mode := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		var out bytes.Buffer
		opt := options{workload: "lookup-256", seed: 3, seconds: 1, trace: mode.trace, spanDir: t.TempDir()}
		if err := run(&out, opt); err != nil {
			t.Fatalf("trace=%v: %v\n%s", mode.trace, err, out.String())
		}
		res := lastResult(t, out.String())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace=%v: result %+v", mode.trace, res)
		}
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json lists %d", mode.trace, len(res.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("trace=%v: %s not printed", mode.trace, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("trace=%v: %s printed in %s, BENCHMARK.json says %s", mode.trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

func lastResult(t *testing.T, out string) Result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}
