package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one job share Job; Parent is the index of the enclosing span, or
// -1 for a job's root span.
type span struct {
	Name   string
	Job    int
	Parent int
	Start  time.Time
	Wall   time.Duration
	// CPU is the process CPU time over the span. It is the span's own cost
	// only on the single-goroutine library workloads; on pmsd-mix it counts
	// the whole process.
	CPU time.Duration
}

// tracer records spans in memory; they are written out when the run ends.
// A nil *tracer records nothing and costs one pointer check per call. The
// service workload's clients record concurrently, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: time.Now(), CPU: cpuNow()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now, cpu := time.Now(), cpuNow()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.Wall = now.Sub(s.Start)
	s.CPU = cpu - s.CPU
}

// call runs f inside a span.
func (t *tracer) call(name string, job, parent int, f func()) {
	i := t.begin(name, job, parent)
	f()
	t.end(i)
}

// selfCPU returns each span name's total self CPU time: its spans' CPU
// minus the CPU of their direct children.
func (t *tracer) selfCPU() map[string]time.Duration {
	if t == nil {
		return nil
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.CPU
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.CPU
		}
	}
	return self
}

// write stores the spans as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing), one track per job, and prints the per-span self-time
// table to stderr.
func (t *tracer) write(path string) error {
	if t == nil || len(t.spans) == 0 {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t0 := t.spans[0].Start
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X", Pid: 1, Tid: s.Job,
			Ts:   float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.Wall.Nanoseconds()) / 1e3,
			Args: map[string]any{"cpu_us": float64(s.CPU.Nanoseconds()) / 1e3, "parent": s.Parent}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	self := t.selfCPU()
	wall := map[string]time.Duration{}
	for _, s := range t.spans {
		wall[s.Name] += s.Wall
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "spans: %d written to %s\n  %-22s %12s %14s\n", len(t.spans), path, "span", "wall ms", "self CPU ms")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-22s %12.1f %14.1f\n", n, ms(wall[n]), ms(self[n]))
	}
	return nil
}

// writeProfile stores the traced run's CPU profile for `go tool pprof`.
func writeProfile(o runOpts, workload string, prof []byte) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/cpu-%s-%d.pprof", o.outDir, workload, o.seed)
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		return fmt.Errorf("writing profile: %w", err)
	}
	fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", path)
	return nil
}
