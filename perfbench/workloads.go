package main

import (
	"fmt"
	"math/rand"
	"time"

	"pmsnet"
)

// libJob is one entry of a library workload's fixed job list: the inputs
// of one pmsnet.Run call, built through the public entry points.
type libJob struct {
	// Key names the job stably across seeds; digest pins are keyed on it.
	Key     string
	Spec    string
	N       int
	Seed    int64
	Analyze bool // run AnalyzeWorkload (preload and hybrid jobs)
	Cfg     pmsnet.Config
}

// workload is one named benchmark workload. Exactly one of libJobs and
// svcJobs is set.
type workload struct {
	Name string
	// PassSeconds is the nominal length of one pass over the job list. A run
	// makes round(--seconds / PassSeconds) passes, at least one: a constant,
	// not a measurement, so sample counts (and with them the tail
	// percentile) are the same on every machine and every commit.
	PassSeconds float64
	// SetupRepeats is how many times the set-up is repeated (pmsd-mix:
	// before each pass); setup_s is the median.
	SetupRepeats int
	// TailPerPass takes a library workload's tails within each pass and
	// reports their median over passes; otherwise they are taken over the
	// samples of all passes. See README.md, "Steadiness".
	TailPerPass bool
	libJobs     func(seed int64) []libJob
	svcJobs     func(seed int64) []svcJob
}

var workloads = []workload{
	{Name: "paper-fig45", PassSeconds: 8.5, SetupRepeats: 7, TailPerPass: true, libJobs: func(s int64) []libJob { return paperJobs(s, 128, fig4Sizes, fig5Dets) }},
	{Name: "churn-1024", PassSeconds: 6.5, SetupRepeats: 11, libJobs: func(s int64) []libJob { return churnJobs(s, 1024, 24) }},
	{Name: "hybrid-plan", PassSeconds: 6.5, SetupRepeats: 15, libJobs: func(s int64) []libJob { return hybridJobs(s, 128, 4) }},
	{Name: "pmsd-mix", PassSeconds: 3, SetupRepeats: 21, svcJobs: func(s int64) []svcJob { return svcJobList(s, 64, 240) }},
}

// smokeWorkloads are the same job lists at a size that runs in seconds; the
// benchmark's own tests use them.
var smokeWorkloads = []workload{
	{Name: "paper-fig45", PassSeconds: 10, SetupRepeats: 1, libJobs: func(s int64) []libJob { return paperJobs(s, 16, []int{8, 512}, []float64{0.5, 1}) }},
	{Name: "churn-1024", PassSeconds: 10, SetupRepeats: 1, libJobs: func(s int64) []libJob { return churnJobs(s, 64, 3) }},
	{Name: "hybrid-plan", PassSeconds: 10, SetupRepeats: 1, libJobs: func(s int64) []libJob { return hybridJobs(s, 16, 1) }},
	{Name: "pmsd-mix", PassSeconds: 10, SetupRepeats: 1, svcJobs: func(s int64) []svcJob { return svcJobList(s, 16, 40) }},
}

func findWorkload(list []workload, name string) (workload, error) {
	for _, w := range list {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(list))
	for i, w := range list {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// Published Figure-4/5 parameters (paper §5, internal/experiments).
var (
	fig4Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	fig5Dets  = []float64{0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0}
)

// paperJobs is the paper's own evaluation: Figure 4 (4 panels × message
// sizes × wormhole/circuit/dynamic TDM/preload TDM at K=4) and Figure 5
// (determinism levels × hybrid TDM with k=0..2 of K=3 slots preloaded).
func paperJobs(seed int64, n int, sizes []int, dets []float64) []libJob {
	nets := []struct {
		name    string
		cfg     pmsnet.Config
		analyze bool
	}{
		{"wormhole", pmsnet.Config{Switching: pmsnet.Wormhole}, false},
		{"circuit", pmsnet.Config{Switching: pmsnet.CircuitSwitching}, false},
		{"tdm-dynamic", pmsnet.Config{Switching: pmsnet.DynamicTDM, K: 4,
			Eviction: pmsnet.TimeoutEviction, EvictionTimeout: 500 * time.Nanosecond}, false},
		{"tdm-preload", pmsnet.Config{Switching: pmsnet.PreloadTDM, K: 4}, true},
	}
	// Every sweep point draws its own workload seed, shared by the networks
	// it compares, so a run averages over many independent random
	// instances and its totals depend little on which seed it was given.
	rng := rand.New(rand.NewSource(seed))
	var jobs []libJob
	for _, panel := range []string{"scatter", "random-mesh", "ordered-mesh", "two-phase"} {
		for _, size := range sizes {
			s := rng.Int63n(1 << 30)
			for _, nw := range nets {
				cfg := nw.cfg
				cfg.N = n
				jobs = append(jobs, libJob{
					Key:  fmt.Sprintf("fig4/%s/%dB/%s", panel, size, nw.name),
					Spec: fmt.Sprintf("%s:bytes=%d", panel, size), N: n, Seed: s,
					Analyze: nw.analyze, Cfg: cfg,
				})
			}
		}
	}
	for _, d := range dets {
		s := rng.Int63n(1 << 30)
		for k := 0; k <= 2; k++ {
			jobs = append(jobs, libJob{
				Key:  fmt.Sprintf("fig5/d%.2f/k%d", d, k),
				Spec: fmt.Sprintf("mix:bytes=64,msgs=40,determinism=%g,think=150ns", d), N: n, Seed: s,
				Analyze: true,
				Cfg: pmsnet.Config{Switching: pmsnet.HybridTDM, N: n, K: 3, PreloadSlots: k,
					Eviction: pmsnet.TimeoutEviction, EvictionTimeout: 250 * time.Nanosecond},
			})
		}
	}
	return jobs
}

// churnJobs runs perm-churn (a fresh random permutation every round) under
// dynamic TDM with time-out eviction, once per derived seed.
func churnJobs(seed int64, n, count int) []libJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]libJob, count)
	for i := range jobs {
		jobs[i] = libJob{
			Key:  fmt.Sprintf("churn/%d", i),
			Spec: "perm-churn", N: n, Seed: rng.Int63n(1 << 30),
			Cfg: pmsnet.Config{Switching: pmsnet.DynamicTDM, N: n, K: 4,
				Eviction: pmsnet.TimeoutEviction, EvictionTimeout: 500 * time.Nanosecond},
		}
	}
	return jobs
}

// hybridJobs runs hybrid TDM (K=4, 2 preloaded slots) under every preload
// planner on four workloads with static structure: all-to-all once (the
// heaviest), and phased, tiles and skewed `reps` times. None of these
// generators draws on its seed, so the seed picks each instance's message
// size instead, from sizes that all fill one 64-byte slot: the demand
// matrices the planners see keep their shape, and the simulations differ.
// Sizes are stratified — instance r of a pattern draws from its own band
// of 32..63 bytes, all-to-all from 56..64 — so a run's total work barely
// depends on the seed.
func hybridJobs(seed int64, n, reps int) []libJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []libJob
	add := func(key, pattern string, lo, width int) {
		spec := fmt.Sprintf("%s:bytes=%d", pattern, lo+rng.Intn(width))
		for _, pl := range []pmsnet.Planner{pmsnet.PlannerStatic, pmsnet.PlannerSolstice, pmsnet.PlannerBvN} {
			jobs = append(jobs, libJob{
				Key:  fmt.Sprintf("hybrid/%s/%s", key, pl),
				Spec: spec, N: n, Seed: seed, Analyze: true,
				Cfg: pmsnet.Config{Switching: pmsnet.HybridTDM, N: n, K: 4, PreloadSlots: 2, Planner: pl,
					Eviction: pmsnet.TimeoutEviction, EvictionTimeout: 500 * time.Nanosecond},
			})
		}
	}
	add("all-to-all", "all-to-all", 56, 9)
	band := 32 / reps
	for r := 0; r < reps; r++ {
		for _, pattern := range []string{"phased", "tiles", "skewed"} {
			add(fmt.Sprintf("%d/%s", r, pattern), pattern, 32+r*band, band)
		}
	}
	return jobs
}
