package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/runtime/track"
)

// now is the benchmark's only wall-clock read: it measures real time
// by design.
func now() time.Time {
	return time.Now() //motlint:ignore walltime the benchmark measures wall-clock latency
}

// since returns the wall time elapsed since t.
func since(t time.Time) time.Duration { return now().Sub(t) }

// Latencies collects one op class's exact per-op times. Exact samples,
// not histogram buckets, so a quantile reads with all its digits.
type Latencies struct{ ns []int64 }

func newLatencies(capacity int) *Latencies { return &Latencies{ns: make([]int64, 0, capacity)} }

func (l *Latencies) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }

func (l *Latencies) merge(o *Latencies) { l.ns = append(l.ns, o.ns...) }

// Summary is a sorted latency sample's headline numbers, in µs.
type Summary struct {
	N                       int
	P50, P90, P99, Max, Avg float64
}

func (l *Latencies) summary() Summary {
	if len(l.ns) == 0 {
		return Summary{}
	}
	s := append([]int64(nil), l.ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum int64
	for _, v := range s {
		sum += v
	}
	us := func(v float64) float64 { return v / 1e3 }
	return Summary{
		N:   len(s),
		P50: us(quantile(s, 0.50)),
		P90: us(quantile(s, 0.90)),
		P99: us(quantile(s, 0.99)),
		Max: us(float64(s[len(s)-1])),
		Avg: us(float64(sum) / float64(len(s))),
	}
}

// quantile interpolates the q-quantile of a sorted sample.
func quantile(s []int64, q float64) float64 {
	if len(s) == 1 {
		return float64(s[0])
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(i)
	return float64(s[i]) + frac*float64(s[i+1]-s[i])
}

// median returns the median of vs (vs is reordered).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) { return statusMB("VmHWM:") }

// statusMB reads one kB field of /proc/self/status, in MB.
func statusMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", field, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == field {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}

// rssSampler reads VmRSS every millisecond and keeps the peak since the
// last take, for runs that need one peak per pass: VmHWM cannot be reset.
type rssSampler struct {
	quit chan struct{}
	g    track.Group
	peak atomic.Uint64 // math.Float64bits of the peak, in MB
	err  atomic.Value  // first read error
}

func startRSSSampler() *rssSampler {
	rs := &rssSampler{quit: make(chan struct{})}
	rs.g.Go(func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rs.quit:
				return
			case <-tick.C:
				mb, err := statusMB("VmRSS:")
				if err != nil {
					rs.err.CompareAndSwap(nil, err)
					return
				}
				for {
					old := rs.peak.Load()
					if mb <= math.Float64frombits(old) || rs.peak.CompareAndSwap(old, math.Float64bits(mb)) {
						break
					}
				}
			}
		}
	})
	return rs
}

// take returns the peak since the previous take and starts a new one.
func (rs *rssSampler) take() (float64, error) {
	if err, ok := rs.err.Load().(error); ok {
		return 0, err
	}
	return math.Float64frombits(rs.peak.Swap(0)), nil
}

func (rs *rssSampler) stop() {
	close(rs.quit)
	rs.g.Wait()
}

// memDelta brackets a region with MemStats reads.
type memDelta struct{ before goruntime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	goruntime.ReadMemStats(&m.before)
	return m
}

// end returns the mallocs, GC cycles and total GC pause (ms) since
// startMem.
func (m *memDelta) end() (mallocs uint64, cycles uint32, pauseMs float64) {
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs, after.NumGC - m.before.NumGC,
		float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}

// Span is one timed call into a layer, recorded from the benchmark's
// side of the call. Each layer is replayed on its own, so spans do not
// nest; the spans of one op of the stream share Op (its index + 1) on
// every layer.
type Span struct {
	ID    int64  `json:"id"`
	Op    int64  `json:"op,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory; Write dumps them once the run ends.
// A nil Tracer records nothing, so untraced runs pay one nil check.
type Tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: now(), spans: make([]Span, 0, 1<<16)} }

// Record stores a finished span.
func (t *Tracer) Record(name string, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{
		ID: int64(len(t.spans) + 1), Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// Write stores the spans as JSON lines under dir.
func (t *Tracer) Write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing span file: %w", err)
	}
	return path, nil
}
