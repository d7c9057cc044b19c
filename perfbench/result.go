package main

import (
	"fmt"
	"runtime/metrics"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one benchmark run: the operation counts that
// make up error_rate, the metrics, and human-readable notes printed above
// the JSON line.
type result struct {
	Attempted int
	Failed    int
	Errors    []string
	Metrics   map[string]metric
	Order     []string
	Notes     []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// fail records one failed operation; the first few errors are kept for the
// report.
func (r *result) fail(err error) { r.failN(1, err) }

// failN records n operations that failed for one reason.
func (r *result) failN(n int, err error) {
	r.Failed += n
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.Order = append(r.Order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runtimeDelta is the change in the runtime's cumulative counters over an
// interval.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles float64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles}
}

// liveHeapMB returns the heap the last GC found live, in MB.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}
