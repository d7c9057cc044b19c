package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"pmsnet"
)

// digest fingerprints every simulated statistic of a report. It leaves out
// the execution-only scheduler counters (Sched.CacheHits/CacheMisses,
// WarmHits/WarmMisses, DirtyRows): they count how the host computed the
// schedule, not what was simulated, and the mechanisms behind them may be
// removed without changing any simulated result.
func digest(r pmsnet.Report) string {
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format+"\x1f", args...) }
	w("%s|%s", r.Network, r.Workload)
	w("%d|%d|%d|%x", r.Messages, r.Bytes, r.Makespan, math.Float64bits(r.Efficiency))
	w("%d|%d|%d|%d", r.LatencyMean, r.LatencyP50, r.LatencyP95, r.LatencyMax)
	w("%s", r.LatencyHistogram)
	w("%x", math.Float64bits(r.HitRate))
	s := r.Sched
	w("%d|%d|%d|%d|%d", s.Passes, s.Established, s.Released, s.Evictions, s.Preloads)
	w("%+v", r.Plan)
	if r.Faults != nil {
		w("%+v", *r.Faults)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkReport applies the checks that hold for every job at any seed: the
// simulation delivered exactly the workload's messages and bytes, and the
// efficiency is a ratio in (0, 1]. It returns nil when the report passes.
func checkReport(r pmsnet.Report, msgs int, bytes int64) error {
	if r.Messages != msgs || r.Bytes != bytes {
		return fmt.Errorf("delivered %d msgs / %d B, workload has %d / %d", r.Messages, r.Bytes, msgs, bytes)
	}
	if !(r.Efficiency > 0 && r.Efficiency <= 1) {
		return fmt.Errorf("efficiency %v outside (0, 1]", r.Efficiency)
	}
	return nil
}

// checkDigest compares a job's digest with its pin, when one exists for
// this seed, and with the digest earlier passes of the same run produced.
// seen carries the per-run digests across passes.
func checkDigest(pins map[string]string, seen map[string]string, key, got string) error {
	if want, ok := pins[key]; ok && want != got {
		return fmt.Errorf("%s: digest %s, pinned %s", key, got, want)
	}
	if prev, ok := seen[key]; ok && prev != got {
		return fmt.Errorf("%s: digest %s differs from an earlier pass (%s)", key, got, prev)
	}
	seen[key] = got
	return nil
}
