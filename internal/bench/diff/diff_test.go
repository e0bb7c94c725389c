package diff

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func report(results ...bench.Result) *bench.Report {
	return &bench.Report{Schema: "mot-bench/v1", Benchmarks: results}
}

func pinned(name string, ns float64, allocs int64) bench.Result {
	return bench.Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs, Pinned: true}
}

func free(name string, ns float64, allocs int64) bench.Result {
	return bench.Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

// The gate's reason to exist: a deliberately injected >15% ns/op
// regression on a pinned benchmark must fail.
func TestDiffFailsOnNsRegression(t *testing.T) {
	rep := Diff(report(pinned("metric/dist-frozen", 100, 0)),
		report(pinned("metric/dist-frozen", 120, 0)), Options{})
	if rep.OK() {
		t.Fatal("+20% pinned ns/op regression passed the gate")
	}
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "+20.0%") {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	rep := Diff(
		report(pinned("metric/dist-frozen", 100, 0), pinned("runtime/ops-live-on", 5000, 40)),
		report(pinned("metric/dist-frozen", 110, 0), pinned("runtime/ops-live-on", 4500, 40)),
		Options{})
	if !rep.OK() {
		t.Fatalf("+10%% should be inside the 15%% tolerance: %v", rep.Failures)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if d := rep.Rows[0].NsDelta; d < 0.099 || d > 0.101 {
		t.Fatalf("delta = %v, want 0.10", d)
	}
}

func TestDiffFailsOnAnyAllocRegression(t *testing.T) {
	rep := Diff(report(pinned("live/nil-sink", 2, 0)),
		report(pinned("live/nil-sink", 2, 1)), Options{})
	if rep.OK() {
		t.Fatal("allocs/op 0 -> 1 on a pinned benchmark passed the gate")
	}
	if !strings.Contains(rep.Failures[0], "allocs/op 0 -> 1") {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

// Deleting a pinned benchmark must not be an escape from the gate.
func TestDiffFailsOnMissingPinned(t *testing.T) {
	rep := Diff(report(pinned("oracle/dist-1024", 30, 0)), report(), Options{})
	if rep.OK() {
		t.Fatal("vanished pinned benchmark passed the gate")
	}
	if !strings.Contains(rep.Failures[0], "missing from current run") {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

// Unpinned rows inform the trajectory; they never gate, however badly
// they move. New benchmarks have no baseline and are adopted silently.
func TestDiffToleratesUnpinnedAndNew(t *testing.T) {
	rep := Diff(
		report(free("sweep/256-cache-on", 1000, 50)),
		report(free("sweep/256-cache-on", 9000, 500), pinned("runtime/ops-live-off", 5000, 40)),
		Options{})
	if !rep.OK() {
		t.Fatalf("unpinned regression or new pinned bench gated: %v", rep.Failures)
	}
	var newRow Row
	for _, r := range rep.Rows {
		if r.Name == "runtime/ops-live-off" {
			newRow = r
		}
	}
	if !newRow.MissingBase {
		t.Fatalf("new benchmark not marked MissingBase: %+v", newRow)
	}
}

func TestDiffCustomTolerance(t *testing.T) {
	base := report(pinned("metric/dist-frozen", 100, 0))
	cur := report(pinned("metric/dist-frozen", 140, 0))
	if Diff(base, cur, Options{MaxNsRegress: 0.5}).OK() != true {
		t.Fatal("+40% should pass a 50% tolerance")
	}
	if Diff(base, cur, Options{MaxNsRegress: 0.3}).OK() {
		t.Fatal("+40% should fail a 30% tolerance")
	}
}

// Round-trip through the on-disk artifact shape `make bench-gate`
// actually consumes: write fixture JSON, load both sides, diff.
func TestLoadReportAndGateFixture(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *bench.Report) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := bench.WriteJSON(f, rep); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	basePath := write("base.json", report(pinned("metric/dist-frozen", 7.3, 0), free("metric/precompute-256", 250000, 600)))
	curPath := write("cur.json", report(pinned("metric/dist-frozen", 9.1, 0), free("metric/precompute-256", 251000, 600)))

	base, err := LoadReport(basePath)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := LoadReport(curPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(base, cur, Options{})
	if rep.OK() {
		t.Fatal("7.3 -> 9.1 ns/op (+24.7%) on a pinned row passed")
	}

	var md strings.Builder
	if err := WriteMarkdown(&md, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Gate: **FAIL**", "metric/dist-frozen", "+24.7%", "| yes |", "metric/precompute-256"} {
		if !strings.Contains(md.String(), want) {
			t.Fatalf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

func TestLoadReportRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("err = %v", err)
	}
	if _, err := LoadReport(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestWriteMarkdownCleanPass(t *testing.T) {
	rep := Diff(report(pinned("live/nil-sink", 2.1, 0)),
		report(pinned("live/nil-sink", 2.0, 0)), Options{})
	var md strings.Builder
	if err := WriteMarkdown(&md, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "Gate: **pass**") {
		t.Fatalf("clean diff not marked pass:\n%s", md.String())
	}
}

// A gomaxprocs or num_cpu mismatch is called out in one Markdown line
// but never gates; an unstamped num_cpu (an old baseline) is unknown,
// not a mismatch.
func TestHostMismatchNote(t *testing.T) {
	host := func(procs, cpus int) *bench.Report {
		rep := report(pinned("live/nil-sink", 2, 0))
		rep.GoMaxProcs, rep.NumCPU = procs, cpus
		return rep
	}
	for _, tc := range []struct {
		name      string
		base, cur *bench.Report
		want      string
	}{
		{"same host", host(2, 2), host(2, 2), ""},
		{"old baseline, same gomaxprocs", host(2, 0), host(2, 2), ""},
		{"old baseline, gomaxprocs differs", host(1, 0), host(2, 2),
			"Host differs: baseline gomaxprocs 1, num_cpu unknown; current gomaxprocs 2, num_cpu 2."},
		{"num_cpu differs", host(2, 4), host(2, 2),
			"Host differs: baseline gomaxprocs 2, num_cpu 4; current gomaxprocs 2, num_cpu 2."},
	} {
		rep := Diff(tc.base, tc.cur, Options{})
		if !rep.OK() {
			t.Fatalf("%s: host mismatch gated: %v", tc.name, rep.Failures)
		}
		var md strings.Builder
		if err := WriteMarkdown(&md, rep); err != nil {
			t.Fatal(err)
		}
		lines := strings.Count(md.String(), "Host differs")
		switch {
		case tc.want == "" && lines != 0:
			t.Fatalf("%s: unexpected host note:\n%s", tc.name, md.String())
		case tc.want != "" && (lines != 1 || !strings.Contains(md.String(), tc.want+"\n")):
			t.Fatalf("%s: want one line %q:\n%s", tc.name, tc.want, md.String())
		}
	}
}

// Reports written before num_cpu was stamped still load, as unknown.
func TestLoadReportWithoutNumCPU(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"schema":"mot-bench/v1","goos":"linux","goarch":"amd64","gomaxprocs":1,"benchmarks":[]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoMaxProcs != 1 || rep.NumCPU != 0 {
		t.Fatalf("gomaxprocs %d, num_cpu %d; want 1, 0", rep.GoMaxProcs, rep.NumCPU)
	}
}
