package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the process's CPU time (user + system, all threads). The
// library workloads run on one goroutine, so the delta around a call is the
// host CPU that call cost, including the GC work it caused on other
// threads, and excluding the time the container was descheduled — which is
// what made wall-clock samples unsteady on a shared 2-core box.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var wallStart = time.Now()

// wallNow returns the monotonic wall time since the process started, as a
// clock for timeSetups.
func wallNow() time.Duration { return time.Since(wallStart) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// steadiness tool reports the same spread the benchmark contract checks.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 3 cut points
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailRank returns the highest integer percentile p of a sample count such
// that at least ten samples lie beyond the p-th percentile's rank. It
// returns 50 when the count is too small for any tail.
func tailRank(count int) int {
	for p := 99; p > 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(count) / 100))
		if count-rank >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(p) * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
