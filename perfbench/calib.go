package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Machine-speed calibration.
//
// On the shared 2-core box this benchmark was built on, the host's speed
// drifts by tens of percent over minutes (other tenants, clock changes): the
// same job's CPU time moved from ~19 ms to ~11 ms within 100 s. No statistic
// taken inside one run removes a drift that covers the whole run, so every
// timing but setup_s is scaled to a fixed machine speed. A fixed kernel that
// shares no code with pmsnet and allocates nothing is timed throughout the
// run, next to the measured work; with k its time, a time t is reported as
// t × ref / k. Both sides of an A/B comparison run the same kernel, so a
// change to pmsnet moves the scaled times exactly as it moves the raw ones.
// The library workloads use one factor per run, the median over every job,
// which removes the drift between runs without adding the kernel's own
// sample-to-sample noise. pmsd-mix scales each pass by the kernel pair
// around it (see passFactor). Each run also prints its raw values.

// refKernelMS and refPairMS are the nominal times of the library kernel
// and of the pmsd-mix kernel pair: roughly their medians on the 2-core
// reference box (Go 1.24). Their values only set the scale.
const (
	refKernelMS = 4.0
	refPairMS   = 1.7
)

// kernelBuf is the library kernel's working set: 4 MB, beyond the private
// caches, so contention for the shared cache and memory slows the kernel
// as it slows the simulator at N=128 and N=1024. Callers run the kernel
// back to back and keep a warm run, so its time does not depend on what
// the job before it left in the caches.
var kernelBuf = make([]uint32, 1<<20)

// pairBufs are the working sets of the pmsd-mix kernel pair: 16 KB each,
// inside the private caches. pmsd-mix's N=64 jobs are small; what slows
// them is CPU time lost to other tenants, which a pair of compute-bound
// copies feels the same way. While sizing the benchmark, over 16 runs, the
// pass throughput scaled by this pair spread 0.06, by a pair of 4 MB
// copies 0.15, and unscaled 0.09.
var pairBufs = [2][]uint32{make([]uint32, 1<<12), make([]uint32, 1<<12)}

var kernelSinks [2]uint32

// kernel is xorshift-driven random read-modify-write over buf.
func kernel(buf []uint32) uint32 {
	x := uint32(2463534242)
	var acc uint32
	mask := uint32(len(buf) - 1)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & mask
		buf[j] += x
		acc += buf[(j*7)&mask]
	}
	return acc
}

// kernelCPU runs the kernel once and returns the CPU time of the thread
// that ran it, in ms: unlike the process clock, it leaves out what the
// collector's background workers do meanwhile.
func kernelCPU() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	kernelSinks[0] += kernel(kernelBuf)
	return ms(threadCPU() - c0)
}

// threadCPU returns the calling thread's CPU time from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), which package syscall does not
// wrap.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // cannot fail for a valid clock and pointer
	}
	return time.Duration(ts.Nano())
}

// kernelPair runs two copies of the kernel over pairBufs at once, one per
// CPU the pmsd-mix load keeps busy, and returns the wall time until both
// are done, in ms. A machine that lends one of its two CPUs elsewhere slows
// the pair as it slows the load, which a single copy would not see.
func kernelPair() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range pairBufs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kernelSinks[c] += kernel(pairBufs[c])
		}(c)
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// kernelRuns runs the kernel n times and returns each run's time.
func kernelRuns(n int, run func() float64) []float64 {
	ks := make([]float64, n)
	for i := range ks {
		ks[i] = run()
	}
	return ks
}

// timeSetups runs set-up `repeats` times, each from a collected heap, and
// returns each one's seconds on the given clock. The cleanup a set-up
// returns, if any, runs untimed.
func timeSetups(repeats int, clock func() time.Duration, setup func() (cleanup func() error, err error)) ([]float64, error) {
	var secs []float64
	for i := 0; i < repeats; i++ {
		runtime.GC()
		c0 := clock()
		cleanup, err := setup()
		secs = append(secs, (clock() - c0).Seconds())
		if err == nil && cleanup != nil {
			err = cleanup()
		}
		if err != nil {
			return nil, err
		}
	}
	return secs, nil
}
