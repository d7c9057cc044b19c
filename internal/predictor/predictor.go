// Package predictor implements the connection-eviction predictors of paper
// §3.2.
//
// In the predictive multiplexed switch, *adding* a connection to the working
// set costs only its first use (a compulsory miss); the interesting decision
// is when to *remove* one so the multiplexing degree stays small. A
// Predictor observes connection usage and nominates connections for
// eviction. The paper's experiments use the simple time-out predictor; the
// counter predictor from §3.2 (reset on use, incremented when other
// connections are used, evict at a threshold) and two reference points
// (never-evict, and an oracle that knows the future) are provided for the
// ablation benchmarks.
package predictor

import (
	"fmt"
	"slices"

	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Predictor decides when established connections should be evicted from the
// network's configuration registers. Implementations are not safe for
// concurrent use.
type Predictor interface {
	// Name identifies the predictor in results.
	Name() string
	// OnEstablish tells the predictor a connection entered the working set.
	OnEstablish(c topology.Conn, now sim.Time)
	// OnUse tells the predictor a connection carried traffic.
	OnUse(c topology.Conn, now sim.Time)
	// OnRelease tells the predictor a connection left the working set for
	// any reason (eviction it requested, a flush, or a scheduler release),
	// so it can drop its state.
	OnRelease(c topology.Conn)
	// Evictions returns the connections that should be evicted now. The
	// caller is expected to evict them and then call OnRelease for each.
	// The slice may be reused by the next Evictions call.
	Evictions(now sim.Time) []topology.Conn
}

// sortConns orders connections for deterministic eviction order.
func sortConns(cs []topology.Conn) {
	slices.SortFunc(cs, func(a, b topology.Conn) int {
		if a.Src != b.Src {
			return a.Src - b.Src
		}
		return a.Dst - b.Dst
	})
}

// --- Never ---

// Never keeps every connection forever; the multiplexing degree only shrinks
// via explicit flushes. Baseline for ablations.
type Never struct{}

// NewNever returns the never-evict predictor.
func NewNever() *Never { return &Never{} }

// Name implements Predictor.
func (*Never) Name() string { return "never" }

// OnEstablish implements Predictor.
func (*Never) OnEstablish(topology.Conn, sim.Time) {}

// OnUse implements Predictor.
func (*Never) OnUse(topology.Conn, sim.Time) {}

// OnRelease implements Predictor.
func (*Never) OnRelease(topology.Conn) {}

// Evictions implements Predictor.
func (*Never) Evictions(sim.Time) []topology.Conn { return nil }

// --- Timeout ---

// Timeout evicts a connection that has not been used for a fixed period —
// the predictor used in the paper's experiments ("a connection is removed if
// it is not used for a certain period of time").
type Timeout struct {
	timeout sim.Time
	lastUse map[topology.Conn]sim.Time
	out     []topology.Conn // Evictions result, reused across calls
}

// NewTimeout builds a time-out predictor. timeout must be positive.
func NewTimeout(timeout sim.Time) *Timeout {
	if timeout <= 0 {
		panic(fmt.Sprintf("predictor: timeout %v must be positive", timeout))
	}
	return &Timeout{timeout: timeout, lastUse: make(map[topology.Conn]sim.Time)}
}

// Name implements Predictor.
func (p *Timeout) Name() string { return fmt.Sprintf("timeout(%v)", p.timeout) }

// OnEstablish implements Predictor.
func (p *Timeout) OnEstablish(c topology.Conn, now sim.Time) { p.lastUse[c] = now }

// OnUse implements Predictor.
func (p *Timeout) OnUse(c topology.Conn, now sim.Time) { p.lastUse[c] = now }

// OnRelease implements Predictor.
func (p *Timeout) OnRelease(c topology.Conn) { delete(p.lastUse, c) }

// Evictions implements Predictor.
func (p *Timeout) Evictions(now sim.Time) []topology.Conn {
	out := p.out[:0]
	for c, last := range p.lastUse {
		if now-last >= p.timeout {
			out = append(out, c)
		}
	}
	sortConns(out)
	p.out = out
	return out
}

// Tracked returns the number of connections under observation.
func (p *Timeout) Tracked() int { return len(p.lastUse) }

// --- Counter ---

// IdleGrantObserver is an optional predictor interface: the network reports
// a TDM slot that granted a connection which had nothing to send while its
// source NIC had traffic waiting for other destinations — a provably wasted
// grant. Counting these closes the liveness hole of purely usage-driven
// predictors: with a network full of single-use stale connections nothing
// is ever "used", so a pure use-counter would freeze and starve the waiting
// traffic forever.
type IdleGrantObserver interface {
	// OnIdleGrant reports one wasted slot grant for connection c.
	OnIdleGrant(c topology.Conn, now sim.Time)
}

// Counter is the paper's alternative predictor: each connection has a
// counter that resets to zero when the connection is used and increments
// every time *another* connection is used; the connection is evicted when
// the counter reaches a threshold. Unlike Timeout, it does not evict during
// pure computation phases when no communication happens at all.
//
// Counter also implements IdleGrantObserver: a slot grant wasted on an idle
// connection while its source has other traffic pending counts against the
// connection as well. Without this, a working set of single-use connections
// deadlocks the switch (no use anywhere → no counter movement → no eviction
// → waiting requests starve); during pure compute phases no traffic is
// pending, so the paper's no-eviction-while-computing property still holds.
type Counter struct {
	threshold uint64
	totalUses uint64
	atLastUse map[topology.Conn]uint64
	idle      map[topology.Conn]uint64
}

// NewCounter builds a counter predictor. threshold must be positive.
func NewCounter(threshold uint64) *Counter {
	if threshold == 0 {
		panic("predictor: counter threshold must be positive")
	}
	return &Counter{
		threshold: threshold,
		atLastUse: make(map[topology.Conn]uint64),
		idle:      make(map[topology.Conn]uint64),
	}
}

// Name implements Predictor.
func (p *Counter) Name() string { return fmt.Sprintf("counter(%d)", p.threshold) }

// OnEstablish implements Predictor.
func (p *Counter) OnEstablish(c topology.Conn, _ sim.Time) { p.atLastUse[c] = p.totalUses }

// OnUse implements Predictor.
func (p *Counter) OnUse(c topology.Conn, _ sim.Time) {
	p.totalUses++
	p.atLastUse[c] = p.totalUses
	delete(p.idle, c)
}

// OnIdleGrant implements IdleGrantObserver.
func (p *Counter) OnIdleGrant(c topology.Conn, _ sim.Time) {
	p.idle[c]++
}

// OnRelease implements Predictor.
func (p *Counter) OnRelease(c topology.Conn) {
	delete(p.atLastUse, c)
	delete(p.idle, c)
}

// Evictions implements Predictor.
func (p *Counter) Evictions(sim.Time) []topology.Conn {
	var out []topology.Conn
	for c, at := range p.atLastUse {
		// Uses by other connections since c's last use (c's own last use is
		// included in totalUses and in at, so the difference counts exactly
		// the *other* uses since then) plus the slot grants c wasted while
		// other traffic waited.
		if p.totalUses-at+p.idle[c] >= p.threshold {
			out = append(out, c)
		}
	}
	sortConns(out)
	return out
}

var _ IdleGrantObserver = (*Counter)(nil)

// --- Oracle ---

// Oracle knows each connection's total use count in advance (extracted from
// the workload) and evicts a connection immediately after its final use.
// It is the eviction upper bound for ablation comparisons.
type Oracle struct {
	remaining map[topology.Conn]int
	done      []topology.Conn
}

// NewOracle builds an oracle from the per-connection total use counts of the
// workload that will run.
func NewOracle(uses map[topology.Conn]int) *Oracle {
	rem := make(map[topology.Conn]int, len(uses))
	for c, n := range uses {
		if n < 0 {
			panic(fmt.Sprintf("predictor: negative use count for %v", c))
		}
		rem[c] = n
	}
	return &Oracle{remaining: rem}
}

// Name implements Predictor.
func (*Oracle) Name() string { return "oracle" }

// OnEstablish implements Predictor.
func (p *Oracle) OnEstablish(c topology.Conn, _ sim.Time) {
	if _, ok := p.remaining[c]; !ok {
		// A connection the oracle never saw in the plan has zero future
		// uses; evict as soon as possible.
		p.done = append(p.done, c)
	}
}

// OnUse implements Predictor.
func (p *Oracle) OnUse(c topology.Conn, _ sim.Time) {
	n, ok := p.remaining[c]
	if !ok {
		return
	}
	n--
	p.remaining[c] = n
	if n <= 0 {
		p.done = append(p.done, c)
		delete(p.remaining, c)
	}
}

// OnRelease implements Predictor.
func (p *Oracle) OnRelease(c topology.Conn) {
	for i, d := range p.done {
		if d == c {
			p.done = append(p.done[:i], p.done[i+1:]...)
			break
		}
	}
}

// Evictions implements Predictor.
func (p *Oracle) Evictions(sim.Time) []topology.Conn {
	out := make([]topology.Conn, len(p.done))
	copy(out, p.done)
	sortConns(out)
	return out
}
