package predictor

import (
	"testing"
	"testing/quick"

	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

var (
	c01 = topology.Conn{Src: 0, Dst: 1}
	c12 = topology.Conn{Src: 1, Dst: 2}
	c23 = topology.Conn{Src: 2, Dst: 3}
)

func TestNever(t *testing.T) {
	p := NewNever()
	p.OnEstablish(c01, 0)
	p.OnUse(c01, 10)
	if got := p.Evictions(1 << 40); got != nil {
		t.Fatalf("never predictor evicted %v", got)
	}
	if p.Name() != "never" {
		t.Fatal("name wrong")
	}
	p.OnRelease(c01) // must not panic
}

func TestTimeoutEvictsIdleConnections(t *testing.T) {
	p := NewTimeout(100)
	p.OnEstablish(c01, 0)
	p.OnEstablish(c12, 0)
	p.OnUse(c01, 50)
	// At t=120: c12 idle for 120 >= 100, c01 idle for 70 < 100.
	got := p.Evictions(120)
	if len(got) != 1 || got[0] != c12 {
		t.Fatalf("Evictions = %v, want [%v]", got, c12)
	}
	// Use refreshes.
	p.OnUse(c12, 121)
	if got := p.Evictions(149); len(got) != 0 {
		t.Fatalf("Evictions after refresh = %v, want none", got)
	}
	// At 250 both are idle long enough; order is deterministic.
	got = p.Evictions(250)
	if len(got) != 2 || got[0] != c01 || got[1] != c12 {
		t.Fatalf("Evictions = %v, want sorted [%v %v]", got, c01, c12)
	}
	p.OnRelease(c01)
	if p.Tracked() != 1 {
		t.Fatalf("Tracked = %d, want 1", p.Tracked())
	}
	// The TDM model asks for evictions every scheduling pass, so a warm
	// predictor must answer without allocating.
	if allocs := testing.AllocsPerRun(10, func() { p.Evictions(1000) }); allocs != 0 {
		t.Errorf("Evictions allocates %.0f times per call", allocs)
	}
}

func TestTimeoutExactBoundary(t *testing.T) {
	p := NewTimeout(100)
	p.OnEstablish(c01, 0)
	if got := p.Evictions(99); len(got) != 0 {
		t.Fatal("must not evict before the timeout")
	}
	if got := p.Evictions(100); len(got) != 1 {
		t.Fatal("must evict exactly at the timeout")
	}
}

func TestTimeoutPanicsOnBadTimeout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeout(0)
}

func TestCounterEvictsOnOtherUses(t *testing.T) {
	p := NewCounter(3)
	p.OnEstablish(c01, 0)
	p.OnEstablish(c12, 0)
	// Three uses of c12: c01's counter reaches 3.
	p.OnUse(c12, 1)
	p.OnUse(c12, 2)
	if got := p.Evictions(2); len(got) != 0 {
		t.Fatalf("premature eviction: %v", got)
	}
	p.OnUse(c12, 3)
	got := p.Evictions(3)
	if len(got) != 1 || got[0] != c01 {
		t.Fatalf("Evictions = %v, want [%v]", got, c01)
	}
}

func TestCounterDoesNotEvictDuringComputePhase(t *testing.T) {
	// The paper's motivation for the counter predictor: no eviction while
	// the application computes and nothing communicates — unlike Timeout.
	p := NewCounter(2)
	p.OnEstablish(c01, 0)
	p.OnUse(c01, 1)
	if got := p.Evictions(1 << 40); len(got) != 0 {
		t.Fatalf("counter predictor evicted %v with no intervening uses", got)
	}
	tp := NewTimeout(100)
	tp.OnEstablish(c01, 0)
	tp.OnUse(c01, 1)
	if got := tp.Evictions(1 << 40); len(got) != 1 {
		t.Fatal("timeout predictor should evict during a long compute phase")
	}
}

func TestCounterUseResets(t *testing.T) {
	p := NewCounter(2)
	p.OnEstablish(c01, 0)
	p.OnUse(c12, 1)
	p.OnUse(c01, 2) // reset
	p.OnUse(c12, 3)
	if got := p.Evictions(3); len(got) != 0 {
		t.Fatalf("counter should be 1 for c01 after reset, got eviction %v", got)
	}
	p.OnUse(c23, 4)
	got := p.Evictions(4)
	if len(got) != 1 || got[0] != c01 {
		t.Fatalf("Evictions = %v, want [%v]", got, c01)
	}
}

func TestCounterPanicsOnZeroThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCounter(0)
}

func TestOracleEvictsAfterLastUse(t *testing.T) {
	p := NewOracle(map[topology.Conn]int{c01: 2, c12: 1})
	p.OnEstablish(c01, 0)
	p.OnEstablish(c12, 0)
	p.OnUse(c01, 1)
	if got := p.Evictions(1); len(got) != 0 {
		t.Fatalf("c01 has one use left, got eviction %v", got)
	}
	p.OnUse(c01, 2)
	p.OnUse(c12, 3)
	got := p.Evictions(3)
	if len(got) != 2 {
		t.Fatalf("Evictions = %v, want both exhausted connections", got)
	}
	p.OnRelease(c01)
	p.OnRelease(c12)
	if got := p.Evictions(4); len(got) != 0 {
		t.Fatalf("after release: %v", got)
	}
}

func TestOracleUnplannedConnectionEvictedImmediately(t *testing.T) {
	p := NewOracle(map[topology.Conn]int{c01: 1})
	p.OnEstablish(c23, 0) // never in the plan
	got := p.Evictions(0)
	if len(got) != 1 || got[0] != c23 {
		t.Fatalf("Evictions = %v, want [%v]", got, c23)
	}
}

func TestOraclePanicsOnNegativeUses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOracle(map[topology.Conn]int{c01: -1})
}

func TestNamesAreDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Predictor{NewNever(), NewTimeout(100), NewCounter(4), NewOracle(nil)} {
		if names[p.Name()] {
			t.Fatalf("duplicate name %q", p.Name())
		}
		names[p.Name()] = true
	}
}

// TestQuickTimeoutNeverEvictsRecentlyUsed: whatever the interleaving, a
// connection used within the timeout window is never nominated.
func TestQuickTimeoutNeverEvictsRecentlyUsed(t *testing.T) {
	f := func(events []uint16, window uint8) bool {
		timeout := sim.Time(int64(window)%500 + 1)
		p := NewTimeout(timeout)
		last := map[topology.Conn]sim.Time{}
		now := sim.Time(0)
		for _, e := range events {
			now += sim.Time(e % 50)
			c := topology.Conn{Src: int(e % 4), Dst: int(e%4) + 1}
			p.OnUse(c, now)
			last[c] = now
		}
		for _, c := range p.Evictions(now) {
			if now-last[c] < timeout {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCounterMatchesNaive compares the counter predictor against a
// naive per-connection recount of "other uses since my last use".
func TestQuickCounterMatchesNaive(t *testing.T) {
	f := func(events []uint8, rawThreshold uint8) bool {
		threshold := uint64(rawThreshold)%10 + 1
		p := NewCounter(threshold)
		var log []topology.Conn
		seen := map[topology.Conn]bool{}
		for _, e := range events {
			c := topology.Conn{Src: int(e % 5), Dst: int(e%5) + 1}
			if !seen[c] {
				p.OnEstablish(c, 0)
				seen[c] = true
			}
			p.OnUse(c, 0)
			log = append(log, c)
		}
		evicted := map[topology.Conn]bool{}
		for _, c := range p.Evictions(0) {
			evicted[c] = true
		}
		for c := range seen {
			othersSince := 0
			for i := len(log) - 1; i >= 0; i-- {
				if log[i] == c {
					break
				}
				othersSince++
			}
			if evicted[c] != (uint64(othersSince) >= threshold) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterIdleGrants(t *testing.T) {
	p := NewCounter(3)
	p.OnEstablish(c01, 0)
	p.OnIdleGrant(c01, 1)
	p.OnIdleGrant(c01, 2)
	if got := p.Evictions(2); len(got) != 0 {
		t.Fatalf("2 idle grants below threshold 3, got %v", got)
	}
	p.OnIdleGrant(c01, 3)
	if got := p.Evictions(3); len(got) != 1 || got[0] != c01 {
		t.Fatalf("Evictions = %v, want [%v]", got, c01)
	}
	// A use resets the idle count.
	p.OnUse(c01, 4)
	p.OnIdleGrant(c01, 5)
	if got := p.Evictions(5); len(got) != 0 {
		t.Fatalf("use should reset idle grants, got %v", got)
	}
	// Idle grants and other-uses combine.
	p.OnIdleGrant(c01, 6)
	p.OnUse(c12, 7)
	if got := p.Evictions(7); len(got) != 1 || got[0] != c01 {
		t.Fatalf("2 idle + 1 other-use should reach threshold 3, got %v", got)
	}
	p.OnRelease(c01)
	if got := p.Evictions(8); len(got) != 0 {
		t.Fatalf("after release: %v", got)
	}
}
