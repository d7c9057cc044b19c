package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"pmsnet"
	"pmsnet/internal/service"
)

// svcJob is one request of the pmsd-mix job list.
type svcJob struct {
	Key    string
	Spec   service.JobSpec
	Status int // the status the server must answer: 200, or 400 for an unknown pattern
	// Repeats is the index of the earlier request whose spec this one
	// repeats (so the result cache must answer it), or -1.
	Repeats int
}

// svcClients is the number of closed-loop clients; request i is sent by
// client i % svcClients.
const svcClients = 2

// svcJobList builds the pmsd-mix request list: specs over {tdm-dynamic,
// tdm-hybrid, wormhole, circuit} × {random-mesh, two-phase, all-reduce,
// perm-churn} at N=n. Every 4th request of each client repeats the spec
// that client sent two requests earlier; every 20th names an unknown
// pattern. Each client gets the same mix: with the rules applied to the
// global index instead, every repeat and every 400 fell to one client,
// which then finished early and left the other running alone, so the
// pass's throughput depended on how the seed's heavy requests fell.
func svcJobList(seed int64, n, count int) []svcJob {
	nets := [...]service.ConfigSpec{
		{Switching: "tdm-dynamic", N: n, K: 4, Eviction: "timeout"},
		{Switching: "tdm-hybrid", N: n, K: 4, PreloadSlots: 1, Eviction: "timeout"},
		{Switching: "wormhole", N: n},
		{Switching: "circuit", N: n},
	}
	patterns := []string{"random-mesh", "two-phase", "all-reduce", "perm-churn"}
	const (
		original = iota
		repeat
		unknown
	)
	kind := func(i int) int {
		switch k := i / svcClients; { // the client's request number
		case k%20 == 19:
			return unknown
		case k%4 == 3:
			return repeat
		}
		return original
	}
	var originals [svcClients]int
	for i := 0; i < count; i++ {
		if kind(i) == original {
			originals[i%svcClients]++
		}
	}
	// Each client's originals cycle through every (network, pattern) pair
	// in a seeded order. The remainder after the last whole cycle is a
	// fixed set, in seeded order: Latin-square rows that take each network
	// and each pattern once (shifted per client). So the multiset of
	// requests, and with it the work of a pass, is the same at every seed.
	rng := rand.New(rand.NewSource(seed))
	pairs := len(nets) * len(patterns)
	var combos [svcClients][]int
	for c := range combos {
		for len(combos[c])+pairs <= originals[c] {
			combos[c] = append(combos[c], rng.Perm(pairs)...)
		}
		var rest []int
		for r := 0; len(combos[c])+len(rest) < originals[c]; r++ {
			net, row := r%len(nets), r/len(nets)
			rest = append(rest, net*len(patterns)+(net+row+2*c)%len(patterns))
		}
		rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
		combos[c] = append(combos[c], rest...)
	}
	var reduces [svcClients][len(nets)]int // all-reduce originals so far, per client and network
	jobs := make([]svcJob, count)
	for i := range jobs {
		c := i % svcClients
		key := fmt.Sprintf("req/%d", i)
		switch kind(i) {
		case unknown:
			jobs[i] = svcJob{Key: key, Status: http.StatusBadRequest, Repeats: -1,
				Spec: service.JobSpec{Config: nets[0], Workload: service.WorkloadSpec{Pattern: "no-such-pattern"}}}
		case repeat:
			// The client's request two before this one is never itself a
			// repeat or a 400, and the client waited for it, so it has been
			// cached.
			prev := i - 2*svcClients
			jobs[i] = jobs[prev]
			jobs[i].Key = key
			jobs[i].Repeats = prev
		default:
			combo := combos[c][0]
			combos[c] = combos[c][1:]
			net := combo / len(patterns)
			wl := service.WorkloadSpec{Pattern: patterns[combo%len(patterns)], Seed: rng.Int63n(1 << 30)}
			if wl.Pattern == "all-reduce" {
				// The collective ignores the seed; a distinct message size
				// per network keeps every first request of a spec a cache
				// miss, and the same sizes for each client at every seed
				// keep the work the same.
				wl.Size = 64 + 8*(svcClients*reduces[c][net]+c)
				reduces[c][net]++
			}
			jobs[i] = svcJob{Key: key, Status: http.StatusOK, Repeats: -1,
				Spec: service.JobSpec{Config: nets[net], Workload: wl}}
		}
	}
	return jobs
}

// svcInput is a request ready to send: its body and the message and byte
// counts its report must show.
type svcInput struct {
	body  []byte
	msgs  int
	bytes int64
}

// svcInputs builds every request's body and expected counts.
func svcInputs(jobs []svcJob) ([]svcInput, error) {
	in := make([]svcInput, len(jobs))
	for i, j := range jobs {
		body, err := json.Marshal(j.Spec)
		if err != nil {
			return nil, err
		}
		in[i].body = body
		if j.Status != http.StatusOK {
			continue
		}
		spec := j.Spec.Workload.Pattern
		if j.Spec.Workload.Size > 0 {
			spec += fmt.Sprintf(":bytes=%d", j.Spec.Workload.Size)
		}
		wl, err := pmsnet.GenerateWorkload(spec, j.Spec.Config.N, j.Spec.Workload.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Key, err)
		}
		in[i].msgs, in[i].bytes = wl.Messages(), wl.TotalBytes()
	}
	return in, nil
}

// startServer starts a fresh server with 2 workers on loopback.
func startServer() (*service.Server, string, error) {
	srv := service.New(service.Config{Workers: 2})
	addr, _, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

func stopServer(srv *service.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// svcSample is what one request produced.
type svcSample struct {
	latency  time.Duration // client-observed, wall clock
	status   int
	cached   bool
	st       service.JobStatus
	bodySize int
	reports  []pmsnet.Report
}

// svcPass drives a fresh server through the request list from 2
// closed-loop clients, each on one keep-alive connection, and checks every
// response. It returns the samples in request order and the load's wall
// time, runtime counters and the live heap it added, after a forced GC
// with the server still up.
func svcPass(jobs []svcJob, in []svcInput, res *result, pins, seen map[string]string, tr *tracer) ([]svcSample, svcLoad, error) {
	srv, addr, err := startServer()
	if err != nil {
		return nil, svcLoad{}, err
	}
	defer stopServer(srv) // the pass's results are already checked
	samples := make([]svcSample, len(jobs))
	errs := make([]error, len(jobs))
	// The kernel pair runs on the idle server before and after the load;
	// its wall time, like the load's, includes time the container was
	// descheduled.
	kernels := kernelRuns(8, kernelPair)
	runtime.GC()
	base := liveHeapMB()
	m0 := readRuntime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			for i := c; i < len(jobs); i += svcClients {
				sp := tr.begin("service.request", i, -1)
				samples[i], errs[i] = post(client, "http://"+addr+"/jobs?wait=1", in[i].body)
				tr.end(sp)
			}
		}(c)
	}
	wg.Wait()
	load := svcLoad{wall: time.Since(t0), rt: readRuntime().sub(m0), sampledMB: liveHeapMB() - base}
	load.kernelMS = append(kernels, kernelRuns(8, kernelPair)...)
	runtime.GC()
	load.heapMB = liveHeapMB() - base

	for i, j := range jobs {
		res.Attempted++
		if err := errs[i]; err != nil {
			res.fail(fmt.Errorf("%s: %w", j.Key, err))
			continue
		}
		if err := checkSvc(j, in[i], samples[i], samples, pins, seen); err != nil {
			res.fail(fmt.Errorf("%s: %w", j.Key, err))
		}
	}
	return samples, load, nil
}

// svcLoad is what one pass's load cost the host.
type svcLoad struct {
	wall      time.Duration
	rt        runtimeDelta
	heapMB    float64   // live heap added by the load, after a forced GC
	sampledMB float64   // the same, as the collector's last own cycle found it
	kernelMS  []float64 // the calibration kernel pair's wall times around the load
}

// passFactor scales a pass's times to the reference machine speed by the
// fastest kernel pair around the load. Over the 16 runs of calib.go, the
// pairs' minimum gave steadier pass throughput and latency than their
// median (0.06 against 0.10).
func passFactor(l svcLoad) float64 { return refPairMS / minOf(l.kernelMS) }

// post sends one synchronous job submission and decodes the answer.
func post(client *http.Client, url string, body []byte) (svcSample, error) {
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return svcSample{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := svcSample{latency: time.Since(start), status: resp.StatusCode, bodySize: len(data),
		cached: resp.Header.Get("X-Cache") == "hit"}
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, nil
	}
	if err := json.Unmarshal(data, &s.st); err != nil {
		return s, fmt.Errorf("decoding status: %w", err)
	}
	var jr service.JobResult
	if err := json.Unmarshal(s.st.Result, &jr); err != nil {
		return s, fmt.Errorf("decoding result: %w", err)
	}
	s.reports = jr.Reports
	return s, nil
}

// checkSvc checks one response: the expected status; for a 200, a done
// job whose single report passes the library checks and its digest pin; a
// repeated spec must be a cache hit byte-identical to the original.
func checkSvc(j svcJob, in svcInput, s svcSample, all []svcSample, pins, seen map[string]string) error {
	if s.status != j.Status {
		return fmt.Errorf("status %d, want %d", s.status, j.Status)
	}
	if j.Status != http.StatusOK {
		return nil
	}
	if s.st.State != service.StateDone || len(s.reports) != 1 {
		return fmt.Errorf("state %s with %d reports, want done with 1", s.st.State, len(s.reports))
	}
	if err := checkReport(s.reports[0], in.msgs, in.bytes); err != nil {
		return err
	}
	if j.Repeats >= 0 {
		if !s.cached {
			return fmt.Errorf("repeat of request %d missed the result cache", j.Repeats)
		}
		if !bytes.Equal(s.st.Result, all[j.Repeats].st.Result) {
			return fmt.Errorf("cached result differs from request %d's", j.Repeats)
		}
		return nil
	}
	if s.cached {
		return fmt.Errorf("first request of its spec answered from the cache")
	}
	return checkDigest(pins, seen, j.Key, digest(s.reports[0]))
}

// runService runs the pmsd-mix workload. Every pass starts a fresh server,
// so the registry and the result cache start empty and the cache hit
// fraction is the same in every pass.
func runService(w workload, o runOpts) *result {
	res := newResult()
	jobs := w.svcJobs(o.seed)
	in, err := svcInputs(jobs)
	if err != nil {
		res.Attempted = len(jobs)
		res.failN(len(jobs), fmt.Errorf("request list: %w", err))
		return res
	}

	// The set-up is the program's: a fresh server up on loopback. The
	// request list above is the benchmark's own input and checker.
	startUp := func() (func() error, error) {
		srv, _, err := startServer()
		if err != nil {
			return nil, err
		}
		return func() error { return stopServer(srv) }, nil
	}

	passes := passCount(w, o.seconds)
	var setup []float64
	var all []svcSample
	var loads []svcLoad
	var tr *tracer
	var prof bytes.Buffer
	for p := 0; p < passes; p++ {
		if !o.trace {
			// Start-ups are timed before every pass, not back to back: the
			// median of a batch moved between 40 and 90 µs within one
			// process over a few seconds.
			s, err := timeSetups(w.SetupRepeats, wallNow, startUp)
			if err != nil {
				res.Attempted += len(jobs)
				res.failN(len(jobs), fmt.Errorf("pass %d: set-up: %w", p, err))
				continue
			}
			setup = append(setup, s...)
		}
		if o.trace && p == passes-1 {
			// Traced runs profile and trace their last pass; the passes
			// before it are the untraced reference.
			if err := pprof.StartCPUProfile(&prof); err != nil {
				res.fail(fmt.Errorf("cpu profile: %w", err))
				return res
			}
			tr = &tracer{}
		}
		s, load, err := svcPass(jobs, in, res, o.pins, o.seen, tr)
		if err != nil {
			res.Attempted += len(jobs)
			res.failN(len(jobs), fmt.Errorf("pass %d: %w", p, err))
			continue
		}
		all = append(all, s...)
		loads = append(loads, load)
	}
	if tr != nil {
		pprof.StopCPUProfile()
	}
	if len(loads) == 0 {
		return res
	}

	// msgRates are each pass's sim_msgs_per_s, scaled as the untraced run
	// scales them.
	var msgRates, ks []float64
	var heap float64
	var rt runtimeDelta
	for p, l := range loads {
		msgRates = append(msgRates, simRate(all[p*len(jobs):(p+1)*len(jobs)])/passFactor(l))
		heap = max(heap, l.heapMB)
		ks = append(ks, minOf(l.kernelMS))
		rt = runtimeDelta{rt.allocBytes + l.rt.allocBytes, rt.allocObjects + l.rt.allocObjects, rt.gcCycles + l.rt.gcCycles}
	}
	if !o.trace {
		// Each pass is scaled by the fastest kernel pair around it: the
		// box's speed for a two-CPU load changes within a run, over tens of
		// seconds. setup_s is the raw wall time (see README.md).
		res.set("setup_s", median(setup), "s")
		tail, runTail := svcTimings(jobs, all, loads, passFactor, res.set)
		res.set("alloc_mb_per_job", rt.allocBytes/1e6/float64(len(all)), "MB")
		res.set("peak_live_heap_mb", heap, "MB")
		res.note("clock: wall time; each pass scaled by %.3g ms / the fastest of the kernel pairs around it (median over passes %.4g ms); setup_s: unscaled median of %d server start-ups, %d before each pass",
			refPairMS, median(ks), len(setup), w.SetupRepeats)
		raw := "raw (unscaled):"
		svcTimings(jobs, all, loads, func(svcLoad) float64 { return 1 }, func(name string, v float64, _ string) { raw += fmt.Sprintf(" %s=%.6g", name, v) })
		res.note("%s", raw)
		res.note("job_tail_ms: p%d of all %d requests; run_tail_ms: p%d of the uncached runs (server run_ms)", tail, len(all), runTail)
		res.note("sim_msgs_per_s (messages per second of server run_ms), jobs_per_s: medians over %d passes; peak_live_heap_mb: maximum over passes of the live heap a pass's load added, after a forced GC with the server up", len(loads))
		return res
	}

	// Per-layer ledger: the traced last pass against the untraced ones.
	last := all[len(all)-len(jobs):]
	if n := len(msgRates); n > 1 {
		res.set("trace.overhead_pct", 100*(1-msgRates[n-1]/median(msgRates[:n-1])), "%")
	} else {
		res.set("trace.overhead_pct", 0, "%")
	}
	res.set("traffic.gen_ms", 0, "ms")
	res.set("compiler.analyze_ms", 0, "ms")
	res.set("plan.plan_ms", 0, "ms")
	res.set("topology.decompose_ms", 0, "ms")
	var reports []pmsnet.Report
	for _, s := range last {
		if !s.cached {
			reports = append(reports, s.reports...)
		}
	}
	setReportLedger(res, reports)
	res.set("tdm.slot_ticks_per_msg", 0, "count") // no probe reaches inside the server
	// Runtime counters come from the untraced passes, which the tracing's
	// own allocations do not skew.
	var ref runtimeDelta
	var sampled float64
	for _, l := range loads[:len(loads)-1] {
		ref = runtimeDelta{ref.allocBytes + l.rt.allocBytes, ref.allocObjects + l.rt.allocObjects, ref.gcCycles + l.rt.gcCycles}
		sampled = max(sampled, l.sampledMB)
	}
	n := float64(max(1, len(all)-len(jobs)))
	res.set("runtime.allocs_per_job", ref.allocObjects/n, "count")
	res.set("runtime.gc_cycles_per_job", ref.gcCycles/n, "count")
	res.set("runtime.peak_live_sampled_mb", sampled, "MB")
	setServiceLedger(res, last)
	setCPULedger(res, prof.Bytes())
	if err := writeProfile(o, w.Name, prof.Bytes()); err != nil {
		res.fail(err)
	}
	if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", o.outDir, w.Name, o.seed)); err != nil {
		res.fail(fmt.Errorf("writing spans: %w", err))
	}
	return res
}

// svcTimings sets the timing metrics of pmsd-mix, with every time of a
// pass multiplied by factor(its load). It returns the tail percentiles of
// the latencies and of the run times, over all passes' samples.
func svcTimings(jobs []svcJob, all []svcSample, loads []svcLoad, factor func(svcLoad) float64, set func(name string, v float64, unit string)) (tail, runTail int) {
	var latMS, runMS, msgRates, jobRates []float64
	for p, l := range loads {
		f := factor(l)
		pass := all[p*len(jobs) : (p+1)*len(jobs)]
		for _, s := range pass {
			latMS = append(latMS, ms(s.latency)*f)
			if s.status == http.StatusOK && !s.cached && len(s.reports) > 0 {
				runMS = append(runMS, s.st.RunMS*f)
			}
		}
		msgRates = append(msgRates, simRate(pass)/f)
		jobRates = append(jobRates, float64(len(jobs))/l.wall.Seconds()/f)
	}
	tail, runTail = tailRank(len(latMS)), tailRank(len(runMS))
	set("sim_msgs_per_s", median(msgRates), "1/s")
	set("run_p50_ms", median(runMS), "ms")
	set("run_tail_ms", percentile(runMS, runTail), "ms")
	set("jobs_per_s", median(jobRates), "1/s")
	set("job_p50_ms", median(latMS), "ms")
	set("job_tail_ms", percentile(latMS, tail), "ms")
	return tail, runTail
}

// simRate is the simulated messages the uncached runs of one pass
// delivered per second the server spent running them (JobStatus.RunMS).
func simRate(ss []svcSample) float64 {
	var msgs int
	var runMS float64
	for _, s := range ss {
		if s.status == http.StatusOK && !s.cached && len(s.reports) > 0 {
			msgs += s.reports[0].Messages
			runMS += s.st.RunMS
		}
	}
	return float64(msgs) / (runMS / 1e3)
}

// setServiceLedger sets the service.* metrics from one pass's samples; nil
// (the library workloads, which skip the service) sets them to zero.
func setServiceLedger(res *result, ss []svcSample) {
	var wait, run, over, kb []float64
	var hits, ok float64
	for _, s := range ss {
		if s.status != http.StatusOK {
			continue
		}
		ok++
		kb = append(kb, float64(s.bodySize)/1e3)
		if s.cached {
			hits++
			continue
		}
		wait = append(wait, s.st.WaitMS)
		run = append(run, s.st.RunMS)
		over = append(over, ms(s.latency)-s.st.WaitMS-s.st.RunMS)
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	res.set("service.wait_ms_p50", med(wait), "ms")
	res.set("service.run_ms_p50", med(run), "ms")
	res.set("service.overhead_ms_p50", med(over), "ms")
	res.set("service.cache_hit_ratio", ratio(hits, ok), "ratio")
	res.set("service.result_kb_p50", med(kb), "KB")
}
