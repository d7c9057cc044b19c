// Package multistage models multistage interconnection fabrics — the
// "fabrics with limited permutation capabilities" of paper §4, and the
// extension direction named in its conclusions ("we are also working on
// extending the design to switching fabrics other than crossbars").
//
// Two classic fabrics are implemented:
//
//   - Omega: log2(N) stages of 2x2 switches behind perfect-shuffle wiring.
//     Self-routing and cheap, but blocking: only a fraction of the partial
//     permutations a crossbar realizes are Omega-realizable. Configurations
//     destined for an Omega fabric must respect these constraints — which is
//     exactly where TDM helps: a working set that does not fit one Omega
//     pass decomposes into several Omega-realizable configurations
//     multiplexed over time (DecomposeOmega).
//
//   - Benes: the 2·log2(N)−1-stage rearrangeably non-blocking network. The
//     looping algorithm routes any full or partial permutation, so a Benes
//     fabric accepts every crossbar configuration at about twice the stage
//     count.
package multistage

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

// Omega is an N-port Omega network: k = log2(N) identical stages, each a
// perfect shuffle followed by N/2 two-by-two switches.
type Omega struct {
	n      int
	stages int
}

// NewOmega builds an Omega network; n must be a power of two, at least 2.
func NewOmega(n int) (*Omega, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("multistage: omega size %d must be a power of two >= 2", n)
	}
	return &Omega{n: n, stages: bits.Len(uint(n)) - 1}, nil
}

// Ports returns N.
func (o *Omega) Ports() int { return o.n }

// Stages returns log2(N).
func (o *Omega) Stages() int { return o.stages }

// SwitchesPerStage returns N/2.
func (o *Omega) SwitchesPerStage() int { return o.n / 2 }

// Settings holds one switch state per stage and switch: false = through,
// true = cross. Only switches on active paths are meaningful; the Route
// simulation treats unconstrained switches as through.
type Settings [][]bool

// shuffle is the perfect-shuffle permutation: rotate the log2(N)-bit address
// left by one.
func (o *Omega) shuffle(pos int) int {
	return ((pos << 1) | (pos >> (o.stages - 1))) & (o.n - 1)
}

// Route computes switch settings realizing the configuration (a partial
// permutation matrix) and the blocked connections, if any. Omega networks
// are self-routing: input i's path to output j is unique, so Route fails
// exactly when two paths need the same switch output line or force one
// switch into both states at once. Connections are admitted in ascending
// input order; on conflict the later connection is reported blocked and the
// routing fails.
func (o *Omega) Route(cfg *bitmat.Matrix) (Settings, error) {
	if cfg.Rows() != o.n || cfg.Cols() != o.n {
		return nil, fmt.Errorf("multistage: configuration is %dx%d, omega has %d ports", cfg.Rows(), cfg.Cols(), o.n)
	}
	if !cfg.IsPartialPermutation() {
		return nil, fmt.Errorf("multistage: configuration is not a partial permutation")
	}
	settings := make(Settings, o.stages)
	constrained := make([][]bool, o.stages)
	for s := range settings {
		settings[s] = make([]bool, o.n/2)
		constrained[s] = make([]bool, o.n/2)
	}
	for u := 0; u < o.n; u++ {
		v := cfg.FirstInRow(u)
		if v < 0 {
			continue
		}
		if err := o.routeOne(settings, constrained, u, v); err != nil {
			return nil, err
		}
	}
	return settings, nil
}

// routeOne threads the unique path from input u to output v, fixing switch
// states along it.
func (o *Omega) routeOne(settings, constrained [][]bool, u, v int) error {
	pos := u
	for s := 0; s < o.stages; s++ {
		pos = o.shuffle(pos)
		sw := pos / 2
		inLine := pos & 1
		// Destination-tag routing: stage s consumes the destination's bit
		// (stages-1-s); the path must exit the switch on that line.
		outLine := (v >> (o.stages - 1 - s)) & 1
		cross := inLine != outLine
		if constrained[s][sw] && settings[s][sw] != cross {
			return fmt.Errorf("multistage: connection %d->%d blocked at stage %d switch %d", u, v, s, sw)
		}
		settings[s][sw] = cross
		constrained[s][sw] = true
		pos = sw*2 + outLine
	}
	if pos != v {
		// The destination-tag construction lands on v by construction; a
		// mismatch means the wiring model is broken.
		panic(fmt.Sprintf("multistage: path from %d ended at %d, want %d", u, pos, v))
	}
	return nil
}

// omegaScratchWords sizes CanRealize's on-stack line bitsets: one N-bit set
// per stage, enough for every N up to 4096 (12 stages of 64 words).
const omegaScratchWords = 12 * 64

// CanRealize reports whether the configuration is Omega-realizable — the
// same verdict as Route, without computing settings. Destination-tag
// routing puts the path u→v, after stage s, on the line
// ((u << (s+1)) mod N) | (v >> (stages-1-s)), so two paths block each other
// exactly when some stage puts them on the same line (the last stage's line
// is v itself, so this also rejects a repeated output). The scheduler's
// fabric hook calls this for every candidate connection on a blocking
// fabric; it allocates nothing for N up to 4096.
func (o *Omega) CanRealize(cfg *bitmat.Matrix) bool {
	if cfg.Rows() != o.n || cfg.Cols() != o.n {
		return false
	}
	words := (o.n + 63) / 64
	var buf [omegaScratchWords]uint64
	var seen []uint64
	if need := o.stages * words; need <= len(buf) {
		seen = buf[:need]
	} else {
		seen = make([]uint64, need)
	}
	mask := o.n - 1
	ok, lastRow := true, -1
	cfg.Ones(func(u, v int) bool {
		if u == lastRow { // a second connection from one input
			ok = false
			return false
		}
		lastRow = u
		for s := 0; s < o.stages; s++ {
			line := (u<<(s+1))&mask | v>>(o.stages-1-s)
			w, bit := s*words+line>>6, uint64(1)<<(line&63)
			if seen[w]&bit != 0 {
				ok = false
				return false
			}
			seen[w] |= bit
		}
		return true
	})
	return ok
}

// Eval traces input u through the settings and returns the output it
// reaches. Unconstrained switches behave as through. It panics on
// out-of-range inputs or malformed settings; it is the verification path
// for Route.
func (o *Omega) Eval(settings Settings, u int) int {
	if u < 0 || u >= o.n {
		panic(fmt.Sprintf("multistage: input %d outside [0,%d)", u, o.n))
	}
	if len(settings) != o.stages {
		panic(fmt.Sprintf("multistage: settings have %d stages, want %d", len(settings), o.stages))
	}
	pos := u
	for s := 0; s < o.stages; s++ {
		pos = o.shuffle(pos)
		sw := pos / 2
		if len(settings[s]) != o.n/2 {
			panic(fmt.Sprintf("multistage: stage %d has %d switches, want %d", s, len(settings[s]), o.n/2))
		}
		line := pos & 1
		if settings[s][sw] {
			line ^= 1
		}
		pos = sw*2 + line
	}
	return pos
}

// DecomposeOmega splits a working set into Omega-realizable configurations —
// DecomposeRealizable under the Omega network's realizability oracle.
func DecomposeOmega(ws *topology.WorkingSet, o *Omega) ([]*bitmat.Matrix, error) {
	return DecomposeRealizable(ws, o.n, "omega", o.CanRealize)
}
