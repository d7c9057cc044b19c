package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"pmsnet"
	"pmsnet/internal/compiler"
	"pmsnet/internal/fabric"
	"pmsnet/internal/link"
	"pmsnet/internal/plan"
	"pmsnet/internal/probe"
	"pmsnet/internal/traffic"
)

// build makes a job's input through the public entry points: the registry
// generator, the compiler analysis for preload and hybrid jobs, and
// Config.Validate. Each call is a span when tr is non-nil.
func (j libJob) build(tr *tracer, job, parent int) (*pmsnet.Workload, error) {
	var wl *pmsnet.Workload
	var err error
	tr.call("traffic.generate", job, parent, func() { wl, err = pmsnet.GenerateWorkload(j.Spec, j.N, j.Seed) })
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", j.Key, err)
	}
	if j.Analyze {
		tr.call("compiler.analyze", job, parent, func() { wl, _, err = pmsnet.AnalyzeWorkload(wl) })
		if err != nil {
			return nil, fmt.Errorf("%s: analyze: %w", j.Key, err)
		}
	}
	tr.call("config.validate", job, parent, func() { err = j.Cfg.Validate() })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.Key, err)
	}
	return wl, nil
}

// buildAll builds every job's input, stopping at the first error.
func buildAll(jobs []libJob) ([]*pmsnet.Workload, error) {
	out := make([]*pmsnet.Workload, len(jobs))
	for i, j := range jobs {
		wl, err := j.build(nil, i, -1)
		if err != nil {
			return nil, err
		}
		out[i] = wl
	}
	return out, nil
}

// libSample is what one job of one pass produced.
type libSample struct {
	run, job time.Duration // process CPU: Run alone, and build + Run
	kernel   float64       // calibration kernel's CPU ms, run after the job
	rep      pmsnet.Report
	slots    uint64 // probe SlotStart count (traced passes only)
	delivs   uint64 // probe MsgDelivered count (traced passes only)
}

// libRun is the state of one run of a library workload.
type libRun struct {
	w    workload
	jobs []libJob
	pins map[string]string
	seen map[string]string
	res  *result
	// heapMB is the maximum over jobs of the live heap measured after each
	// job, less the live heap at the start of its pass: what the job's
	// input, its report and anything pmsnet retained add to the benchmark's
	// own state (the job list, pins, earlier samples, the kernel's buffer).
	heapMB float64
	// sampledMB is the same excess as the collector's own cycles reported
	// it; it depends on GC timing, so it is a per-layer figure only.
	sampledMB float64
}

// pass runs every job once: build its input, Run it, check the report.
// With a tracer, every call is a span and each Run carries a probe
// CounterSink. With fixedGC, a forced GC ends every job: it measures the
// job's retained heap and starts the next job from a collected heap, so the
// GC work a job pays for does not depend on where the previous one left
// the collector. The ledger passes leave it out, so their CPU profile and
// GC counts hold only the program's own collections.
func (r *libRun) pass(tr *tracer, fixedGC bool) []libSample {
	samples := make([]libSample, 0, len(r.jobs))
	runtime.GC()
	base := liveHeapMB()
	for i, j := range r.jobs {
		r.res.Attempted++
		root := tr.begin("job", i, -1)
		c0 := cpuNow()
		wl, err := j.build(tr, i, root)
		if err != nil {
			tr.end(root)
			r.res.fail(err)
			continue
		}
		cfg := j.Cfg
		var sink *pmsnet.CounterSink
		if tr != nil {
			sink = pmsnet.NewCounterSink()
			cfg.Probe = pmsnet.NewProbe(sink)
		}
		var rep pmsnet.Report
		c1 := cpuNow()
		tr.call("pmsnet.run", i, root, func() { rep, err = pmsnet.Run(cfg, wl) })
		c2 := cpuNow()
		tr.end(root)
		r.sampledMB = math.Max(r.sampledMB, liveHeapMB()-base)
		if fixedGC {
			// The live heap with the job's input and report still held: a
			// fixed point of the run, unlike the collector's own cycles,
			// whose timing inside Run varies from run to run.
			runtime.GC()
			r.heapMB = math.Max(r.heapMB, liveHeapMB()-base)
			runtime.KeepAlive(wl)
		}
		if err == nil {
			err = checkReport(rep, wl.Messages(), wl.TotalBytes())
		}
		if err == nil {
			err = checkDigest(r.pins, r.seen, j.Key, digest(rep))
		}
		if err != nil {
			r.res.fail(fmt.Errorf("%s: %w", j.Key, err))
			continue
		}
		// The ledger reads only the report's counters. Dropping the
		// histogram text keeps the samples gathered so far in this pass
		// out of the next job's heap figure.
		rep.LatencyHistogram = ""
		s := libSample{run: c2 - c1, job: c2 - c0, rep: rep}
		if fixedGC {
			// Two runs: the first warms the kernel's working set after the
			// job, the faster one is the machine's speed.
			s.kernel = min(kernelCPU(), kernelCPU())
		}
		if sink != nil {
			s.slots, s.delivs = sink.Count(probe.SlotStart), sink.Count(probe.MsgDelivered)
		}
		samples = append(samples, s)
	}
	return samples
}

// runLibrary runs a library workload: set-up repeated SetupRepeats times,
// then a fixed number of passes over the job list. With trace set it
// instead runs the traced passes between two untraced reference passes,
// and reports the per-layer ledger.
func runLibrary(w workload, o runOpts) *result {
	r := &libRun{w: w, jobs: w.libJobs(o.seed), pins: o.pins, seen: o.seen, res: newResult()}
	passes := passCount(w, o.seconds)
	if !o.trace {
		setup, err := timeSetups(w.SetupRepeats, cpuNow, func() (func() error, error) {
			_, err := buildAll(r.jobs)
			return nil, err
		})
		if err != nil {
			r.res.Attempted = len(r.jobs)
			r.res.failN(len(r.jobs), fmt.Errorf("set-up: %w", err))
			return r.res
		}
		var all [][]libSample
		m0 := readRuntime()
		for p := 0; p < passes; p++ {
			all = append(all, r.pass(nil, true))
		}
		r.endToEnd(all, readRuntime().sub(m0), setup)
		return r.res
	}

	// Traced run. Untraced reference passes before and after the traced
	// ones give the tracing overhead: a drift in the machine's speed moves
	// both sides alike. The first gives the runtime counters and the
	// sampled heap, none of which the tracing's own work may skew.
	m0 := readRuntime()
	ref := r.pass(nil, false)
	rt := readRuntime().sub(m0)
	sampled := r.sampledMB
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.res.fail(fmt.Errorf("cpu profile: %w", err))
		return r.res
	}
	tr := &tracer{}
	var traced []libSample
	for p := 0; p < passes; p++ {
		traced = append(traced, r.pass(tr, false)...)
	}
	pprof.StopCPUProfile()
	after := r.pass(nil, false)
	// The preloader's planning calls, replayed outside the profiled passes so
	// the CPU shares do not count them twice.
	if err := r.replayPlanning(tr); err != nil {
		r.res.fail(err)
	}
	r.perLayer(ref, after, traced, tr, passes, rt, sampled, prof.Bytes())
	if err := writeProfile(o, w.Name, prof.Bytes()); err != nil {
		r.res.fail(err)
	}
	if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", o.outDir, w.Name, o.seed)); err != nil {
		r.res.fail(fmt.Errorf("writing spans: %w", err))
	}
	return r.res
}

// passCount is the fixed number of passes a run of the given length makes.
func passCount(w workload, seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.PassSeconds)))
}

// endToEnd derives the end-to-end metrics from the untraced passes. Every
// timing is process CPU time (see cpuNow), scaled to the reference machine
// speed by the kernel run after each job (see calib.go); the raw values
// are printed as a note. setup_s is not scaled: the kernel follows the
// contention for the shared cache and memory that slows Run, which the
// compute-bound set-up does not feel (see README.md).
func (r *libRun) endToEnd(passes [][]libSample, rt runtimeDelta, setup []float64) {
	var ks []float64
	for _, pass := range passes {
		for _, s := range pass {
			ks = append(ks, s.kernel)
		}
	}
	f := refKernelMS / median(ks)
	r.res.set("setup_s", median(setup), "s")
	tail := libTimings(passes, f, r.w.TailPerPass, r.res.set)
	r.res.set("alloc_mb_per_job", rt.allocBytes/1e6/float64(max(1, len(ks))), "MB")
	r.res.set("peak_live_heap_mb", r.heapMB, "MB")
	r.res.note("clock: process CPU time, scaled by %.3g ms / the kernel's median of %.4g ms; setup_s, not scaled, is the median of %d builds of all %d inputs",
		refKernelMS, median(ks), r.w.SetupRepeats, len(r.jobs))
	raw := "raw (unscaled):"
	libTimings(passes, 1, r.w.TailPerPass, func(name string, v float64, _ string) { raw += fmt.Sprintf(" %s=%.6g", name, v) })
	r.res.note("%s", raw)
	r.res.note("peak_live_heap_mb: maximum over jobs of the live heap after a forced GC at the job's end, input and report held, less the live heap at the start of the job's pass")
	if r.w.TailPerPass {
		r.res.note("run_tail_ms/job_tail_ms: median over %d passes of each pass's p%d of %d jobs", len(passes), tail, len(r.jobs))
	} else {
		r.res.note("run_tail_ms/job_tail_ms: p%d of %d samples (%d jobs x %d passes)", tail, len(ks), len(r.jobs), len(passes))
	}
}

// libTimings sets the timing metrics of the library workloads, with every
// time multiplied by f. With perPass, the tails are taken within each pass
// and the median over passes is reported; otherwise they are taken over
// all samples. It returns the tail percentile.
func libTimings(passes [][]libSample, f float64, perPass bool, set func(name string, v float64, unit string)) int {
	var runMS, jobMS, runTails, jobTails []float64
	var msgs int
	var runS, jobS float64
	var tail int
	for _, pass := range passes {
		var passRun, passJob []float64
		for _, s := range pass {
			run, job := ms(s.run)*f, ms(s.job)*f
			passRun = append(passRun, run)
			passJob = append(passJob, job)
			runS += run / 1e3
			jobS += job / 1e3
			msgs += s.rep.Messages
		}
		if perPass {
			tail = tailRank(len(pass))
			runTails = append(runTails, percentile(passRun, tail))
			jobTails = append(jobTails, percentile(passJob, tail))
		}
		runMS = append(runMS, passRun...)
		jobMS = append(jobMS, passJob...)
	}
	if !perPass {
		tail = tailRank(len(runMS))
		runTails = []float64{percentile(runMS, tail)}
		jobTails = []float64{percentile(jobMS, tail)}
	}
	set("sim_msgs_per_s", float64(msgs)/runS, "1/s")
	set("run_p50_ms", median(runMS), "ms")
	set("run_tail_ms", median(runTails), "ms")
	set("jobs_per_s", float64(len(jobMS))/jobS, "1/s")
	set("job_p50_ms", median(jobMS), "ms")
	set("job_tail_ms", median(jobTails), "ms")
	return tail
}

// perLayer derives the per-layer ledger from the traced passes; ref and
// after are the untraced reference passes before and after them.
func (r *libRun) perLayer(ref, after, traced []libSample, tr *tracer, passes int, rt runtimeDelta, sampledMB float64, prof []byte) {
	rate := func(ss []libSample) float64 {
		var msgs int
		var sec float64
		for _, s := range ss {
			msgs += s.rep.Messages
			sec += s.run.Seconds()
		}
		return float64(msgs) / sec
	}
	r.res.set("trace.overhead_pct", 100*(1-rate(traced)/rate(append(ref, after...))), "%")
	self := tr.selfCPU()
	perPass := func(name string) float64 { return ms(self[name]) / float64(passes) }
	r.res.set("traffic.gen_ms", perPass("traffic.generate"), "ms")
	r.res.set("compiler.analyze_ms", perPass("compiler.analyze"), "ms")
	// The planning replay runs once, so its totals are already per pass.
	r.res.set("plan.plan_ms", ms(self["plan.plan"]), "ms")
	r.res.set("topology.decompose_ms", ms(self["topology.decompose"]), "ms")
	var reports []pmsnet.Report
	var slots, delivs uint64
	for _, s := range ref {
		reports = append(reports, s.rep)
	}
	for _, s := range traced {
		if s.rep.Sched.Passes > 0 { // a TDM run
			slots += s.slots
			delivs += s.delivs
		}
	}
	setReportLedger(r.res, reports)
	r.res.set("tdm.slot_ticks_per_msg", ratio(float64(slots), float64(delivs)), "count")
	n := float64(max(1, len(ref)))
	r.res.set("runtime.allocs_per_job", rt.allocObjects/n, "count")
	r.res.set("runtime.gc_cycles_per_job", rt.gcCycles/n, "count")
	r.res.set("runtime.peak_live_sampled_mb", sampledMB, "MB")
	setServiceLedger(r.res, nil)
	setCPULedger(r.res, prof)
}

// replayPlanning repeats, outside pmsnet.Run, the planning calls the TDM
// preloader makes for every preload and hybrid job — the fabric's
// Decompose per static phase on the static path, or the planner's Plan on
// the phase-restricted demand — and times each as a span. The internal
// workload is rebuilt with the same generator and analysis calls the
// facade makes, outside the spans.
func (r *libRun) replayPlanning(tr *tracer) error {
	for i, j := range r.jobs {
		slots := j.Cfg.K
		switch j.Cfg.Switching {
		case pmsnet.PreloadTDM:
		case pmsnet.HybridTDM:
			slots = j.Cfg.PreloadSlots
		default:
			continue
		}
		if slots == 0 {
			continue
		}
		spec, err := traffic.ParseSpec(j.Spec)
		if err != nil {
			return err
		}
		wl, err := spec.Generate(j.N, j.Seed)
		if err != nil {
			return err
		}
		if j.Analyze {
			if wl, _, err = compiler.Analyze(wl, compiler.Options{InsertDirectives: true}); err != nil {
				return err
			}
		}
		fab, err := fabric.NewBackend(fabric.KindCrossbar, j.N)
		if err != nil {
			return err
		}
		root := tr.begin("job", i, -1)
		if j.Cfg.Planner == pmsnet.PlannerStatic {
			for _, phase := range wl.StaticPhases {
				tr.call("topology.decompose", i, root, func() { _, err = fab.Decompose(phase) })
				if err != nil {
					return fmt.Errorf("%s: decompose: %w", j.Key, err)
				}
			}
		} else {
			kind, err := plan.Parse(j.Cfg.Planner.String())
			if err != nil {
				return err
			}
			const payloadBytes, slotNs = 64, 100 // tdm.Config defaults
			demand := plan.FromWorkload(wl, payloadBytes)
			opts := plan.Options{
				ReconfigSlots: float64(link.Paper().ControlDelay()) / slotNs,
				CoverAll:      j.Cfg.Switching == pmsnet.PreloadTDM,
				Decompose:     fab.Decompose,
			}
			for _, phase := range wl.StaticPhases {
				tr.call("plan.plan", i, root, func() { _, err = plan.New(kind).Plan(demand.Restrict(phase), j.Cfg.K, slots, opts) })
				if err != nil {
					return fmt.Errorf("%s: plan: %w", j.Key, err)
				}
			}
		}
		tr.end(root)
	}
	return nil
}

// setReportLedger sets the per-layer metrics read from simulation reports.
func setReportLedger(res *result, reports []pmsnet.Report) {
	var configs, residual, passes, hits, misses, evictions, tdmMsgs float64
	var hitRate float64
	var tdmJobs int
	for _, rep := range reports {
		configs += float64(rep.Plan.Configs)
		residual += float64(rep.Plan.ResidualConns)
		passes += float64(rep.Sched.Passes)
		hits += float64(rep.Sched.CacheHits)
		misses += float64(rep.Sched.CacheMisses)
		if rep.Sched.Passes > 0 { // a TDM run
			tdmJobs++
			hitRate += rep.HitRate
			evictions += float64(rep.Sched.Evictions)
			tdmMsgs += float64(rep.Messages)
		}
	}
	n := float64(max(1, len(reports)))
	res.set("plan.configs", configs/n, "count")
	res.set("plan.residual_conns", residual/n, "count")
	res.set("core.passes_per_job", passes/n, "count")
	res.set("core.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("tdm.conn_hit_ratio", ratio(hitRate, float64(tdmJobs)), "ratio")
	res.set("tdm.evictions_per_msg", ratio(evictions, tdmMsgs), "count")
}

// setCPULedger sets the cpu.* self-time shares from a CPU profile.
func setCPULedger(res *result, prof []byte) {
	shares, total, err := cpuShares(prof)
	if err != nil {
		res.fail(err)
		return
	}
	for _, l := range cpuLayers {
		res.set("cpu."+l, shares[l], "ratio")
	}
	res.note("cpu.*: self-time shares of %.2f s of profiled CPU", float64(total)/1e9)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
