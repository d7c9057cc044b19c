package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"testing"
	"time"

	"pmsnet"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func testPins(t *testing.T, scale, workload string, seed int64) map[string]string {
	t.Helper()
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	p := pins[scale][workload][strconv.FormatInt(seed, 10)]
	if len(p) == 0 {
		t.Fatalf("no %s digest pins for %s at seed %d", scale, workload, seed)
	}
	return p
}

// runSmoke runs a workload's smoke configuration against its pins and
// fails the test on any failed operation or unpinned job.
func runSmoke(t *testing.T, w workload, seed int64, trace bool) *result {
	t.Helper()
	pins := testPins(t, "smoke", w.Name, seed)
	seen := map[string]string{}
	res := runWorkload(w, runOpts{seed: seed, seconds: 0, trace: trace, pins: pins, seen: seen, outDir: t.TempDir()})
	if res.Failed > 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", w.Name, seed, res.Failed, res.Attempted, res.Errors)
	}
	for key := range pins {
		if _, ok := seen[key]; !ok {
			t.Errorf("%s seed %d: pinned job %s did not run", w.Name, seed, key)
		}
	}
	return res
}

// TestEmittedNamesMatchBenchmarkJSON runs every workload's smoke
// configuration untraced and traced, and checks that the metric names are
// well-formed and exactly BENCHMARK.json's end-to-end and per-layer lists,
// with the same units.
func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.Name)
	}
	if !equalSets(specNames, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", specNames, ours)
	}
	for _, w := range smokeWorkloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res := runSmoke(t, w, 1, trace)
			var got, wantNames []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("%s: malformed name %q or unit %q", w.Name, name, m.Unit)
				}
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
			}
			if !equalSets(got, wantNames) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json lists %v", w.Name, trace, got, wantNames)
			}
			if trace {
				var sum float64
				for _, l := range cpuLayers {
					sum += res.Metrics["cpu."+l].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: cpu.* shares sum to %v, want 1", w.Name, sum)
				}
			} else {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestHeldOutSeedDigestsVerify checks the held-out seed's pins: the smoke
// configurations always, the full workloads (one pass each) unless -short.
func TestHeldOutSeedDigestsVerify(t *testing.T) {
	for _, w := range smokeWorkloads {
		runSmoke(t, w, 2, false)
	}
	if testing.Short() {
		t.Skip("full-size held-out digests skipped in -short mode")
	}
	for _, w := range workloads {
		pins := testPins(t, "full", w.Name, 2)
		seen := map[string]string{}
		res := runWorkload(w, runOpts{seed: 2, seconds: 0, pins: pins, seen: seen})
		if res.Failed > 0 {
			t.Errorf("%s seed 2: %d failed: %v", w.Name, res.Failed, res.Errors)
		}
		if len(seen) != len(pins) {
			t.Errorf("%s seed 2: %d digests seen, %d pinned", w.Name, len(seen), len(pins))
		}
	}
}

// TestSeedChangesInputs checks that --seed reaches the inputs of every
// workload: the built workloads (library) or request bodies (service)
// differ between seeds 1 and 2.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		if inputsKey(t, w, 1) == inputsKey(t, w, 2) {
			t.Errorf("%s: seeds 1 and 2 give identical inputs", w.Name)
		}
		if inputsKey(t, w, 1) != inputsKey(t, w, 1) {
			t.Errorf("%s: seed 1 gives different inputs twice", w.Name)
		}
	}
}

func inputsKey(t *testing.T, w workload, seed int64) string {
	t.Helper()
	var key []byte
	if w.svcJobs != nil {
		in, err := svcInputs(w.svcJobs(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range in {
			key = append(key, i.body...)
		}
		return string(key)
	}
	wls, err := buildAll(w.libJobs(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range wls {
		h, err := wl.Hash()
		if err != nil {
			t.Fatal(err)
		}
		key = strconv.AppendUint(key, h, 16)
	}
	return string(key)
}

// TestPerturbedReportIsCaught shows the correctness gate catching a wrong
// simulated statistic: every perturbed field changes the digest, the
// invariant checks reject bad counts and efficiencies, a run against a
// corrupted pin counts failures, and the execution-only counters are
// outside the digest.
func TestPerturbedReportIsCaught(t *testing.T) {
	w, err := findWorkload(smokeWorkloads, "paper-fig45")
	if err != nil {
		t.Fatal(err)
	}
	job := w.libJobs(1)[10]
	if job.Key != "fig4/random-mesh/8B/tdm-dynamic" { // scheduler and connection counters are live
		t.Fatalf("smoke job 10 is %s", job.Key)
	}
	wl, err := job.build(nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pmsnet.Run(job.Cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(rep, wl.Messages(), wl.TotalBytes()); err != nil {
		t.Fatalf("unperturbed report fails: %v", err)
	}
	base := digest(rep)
	perturb := map[string]func(r *pmsnet.Report){
		"Messages":         func(r *pmsnet.Report) { r.Messages++ },
		"Bytes":            func(r *pmsnet.Report) { r.Bytes-- },
		"Makespan":         func(r *pmsnet.Report) { r.Makespan += time.Nanosecond },
		"Efficiency":       func(r *pmsnet.Report) { r.Efficiency = math.Nextafter(r.Efficiency, 0) },
		"LatencyP95":       func(r *pmsnet.Report) { r.LatencyP95++ },
		"LatencyHistogram": func(r *pmsnet.Report) { r.LatencyHistogram += " " },
		"HitRate":          func(r *pmsnet.Report) { r.HitRate /= 2 },
		"Sched.Passes":     func(r *pmsnet.Report) { r.Sched.Passes++ },
		"Sched.Evictions":  func(r *pmsnet.Report) { r.Sched.Evictions++ },
		"Plan.Configs":     func(r *pmsnet.Report) { r.Plan.Configs++ },
		"Faults":           func(r *pmsnet.Report) { r.Faults = &pmsnet.FaultReport{} },
	}
	for field, f := range perturb {
		p := rep
		f(&p)
		if digest(p) == base {
			t.Errorf("perturbing %s leaves the digest unchanged", field)
		}
		if err := checkDigest(map[string]string{"j": base}, map[string]string{}, "j", digest(p)); err == nil {
			t.Errorf("perturbing %s passes the pinned-digest check", field)
		}
	}
	for field, f := range map[string]func(r *pmsnet.Report){
		"Messages":        func(r *pmsnet.Report) { r.Messages-- },
		"Bytes":           func(r *pmsnet.Report) { r.Bytes++ },
		"Efficiency zero": func(r *pmsnet.Report) { r.Efficiency = 0 },
		"Efficiency > 1":  func(r *pmsnet.Report) { r.Efficiency = 1.01 },
	} {
		p := rep
		f(&p)
		if checkReport(p, wl.Messages(), wl.TotalBytes()) == nil {
			t.Errorf("checkReport accepts a report with perturbed %s", field)
		}
	}
	exec := rep
	exec.Sched.CacheHits += 5
	exec.Sched.CacheMisses += 5
	exec.Sched.WarmHits++
	exec.Sched.WarmMisses++
	exec.Sched.DirtyRows++
	if digest(exec) != base {
		t.Error("execution-only scheduler counters change the digest")
	}

	// End to end: a run against one corrupted pin fails exactly that job.
	pins := map[string]string{}
	for k, v := range testPins(t, "smoke", w.Name, 1) {
		pins[k] = v
	}
	pins[job.Key] = "0000000000000000"
	res := runWorkload(w, runOpts{seed: 1, seconds: 0, pins: pins, seen: map[string]string{}})
	if res.Failed != 1 {
		t.Errorf("corrupted pin: %d failures (%v), want 1", res.Failed, res.Errors)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{ // statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3.1, 1.2, 9.9, 4.4}, 1.675, 8.525},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, p int }{{336, 97}, {1000, 99}, {100, 90}, {72, 86}, {12, 50}} {
		if got := tailRank(c.n); got != c.p {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.p)
		}
		if c.p > 50 {
			rank := int(math.Ceil(float64(c.p) * float64(c.n) / 100))
			if c.n-rank < 10 {
				t.Errorf("tailRank(%d) = p%d leaves %d samples beyond", c.n, c.p, c.n-rank)
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPmsdMixSameWorkAtEverySeed checks that the seed changes only the
// random patterns' contents and the order on pmsd-mix: each client's
// multiset of uncached requests (network, pattern, message size), of 400s
// and of cache repeats is the same at every seed.
func TestPmsdMixSameWorkAtEverySeed(t *testing.T) {
	mix := func(seed int64) [svcClients][]string {
		var out [svcClients][]string
		for i, j := range svcJobList(seed, 64, 240) {
			req := "repeat"
			if j.Repeats < 0 {
				req = fmt.Sprintf("%d %s %s %d", j.Status, j.Spec.Config.Switching, j.Spec.Workload.Pattern, j.Spec.Workload.Size)
			}
			out[i%svcClients] = append(out[i%svcClients], req)
		}
		for _, c := range out {
			sort.Strings(c)
		}
		return out
	}
	want := mix(1)
	for _, seed := range []int64{2, 3, 17} {
		got := mix(seed)
		for c := range got {
			if !equalSets(got[c], want[c]) {
				t.Errorf("seed %d: client %d's request mix differs from seed 1's", seed, c)
			}
		}
	}
}
