package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"
)

// span is one call the benchmark made into a module's exported function.
// StartNS and EndNS are wall-clock nanoseconds since the run started and
// SelfNS is wall-clock too; CPUNS is the process CPU time the call used.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // -1 for a root span
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	SelfNS     int64  `json:"self_ns"`
	CPUNS      int64  `json:"cpu_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer keeps the spans of one traced run in memory. A nil tracer records
// nothing, so the untraced and traced runs share one code path and differ
// only by the recording itself.
type tracer struct {
	runID    string
	workload string
	seed     int64
	t0       time.Time
	spans    []span
	open     []int // stack of open span ids
}

func newTracer(workload string, seed int64) *tracer {
	t0 := time.Now()
	return &tracer{
		runID:    fmt.Sprintf("%s-%d-%d", workload, seed, t0.UnixNano()),
		workload: workload,
		seed:     seed,
		t0:       t0,
	}
}

// cpuNS returns the CPU time, user and system, that the process has used on
// all its threads. Every host time the benchmark reports is CPU time: on a
// shared virtual machine the hypervisor steals wall-clock time in bursts of
// seconds, which CPU time leaves out.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only invalid arguments fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// allocBytes reads the bytes allocated on the heap since the process
// started, without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span named name as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		AllocBytes: allocBytes(),
		CPUNS:      cpuNS(),
		StartNS:    time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndNS = now
	s.CPUNS = cpuNS() - s.CPUNS
	s.AllocBytes = allocBytes() - s.AllocBytes
}

// cost is one call's CPU time and heap allocation.
type cost struct {
	ns    int64
	alloc uint64
}

// measure runs fn inside a span named name (when tr is not nil) and returns
// its cost. The cost is taken inside the span, so tracing adds to a round's
// host time but not to the measured call.
func measure(tr *tracer, name string, fn func() error) (cost, error) {
	tr.begin(name)
	a := allocBytes()
	start := cpuNS()
	err := fn()
	c := cost{ns: cpuNS() - start}
	c.alloc = allocBytes() - a
	tr.end()
	return c, err
}

// spanTotals sums the CPU time, allocation and count of the spans of one
// name.
type spanTotals struct {
	count      int
	ns         int64
	allocBytes uint64
}

func (t *tracer) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	for _, s := range t.spans {
		a := out[s.Name]
		a.count++
		a.ns += s.CPUNS
		a.allocBytes += s.AllocBytes
		out[s.Name] = a
	}
	return out
}

// computeSelf sets each span's self time: its duration minus the part its
// child spans cover. Children never overlap, since calls are sequential.
func (t *tracer) computeSelf() {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	t.computeSelf()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	data, err := json.Marshal(struct {
		RunID    string `json:"run_id"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.runID, t.workload, t.seed, t.spans})
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
