package multistage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

func TestNewOmegaValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewOmega(n); err == nil {
			t.Errorf("NewOmega(%d) should fail", n)
		}
	}
	o, err := NewOmega(8)
	if err != nil {
		t.Fatal(err)
	}
	if o.Ports() != 8 || o.Stages() != 3 || o.SwitchesPerStage() != 4 {
		t.Fatalf("omega geometry wrong: %+v", o)
	}
}

func TestOmegaRouteIdentity(t *testing.T) {
	o, _ := NewOmega(8)
	cfg := bitmat.Identity(8)
	settings, err := o.Route(cfg)
	if err != nil {
		t.Fatalf("identity should be omega-realizable: %v", err)
	}
	for u := 0; u < 8; u++ {
		if got := o.Eval(settings, u); got != u {
			t.Fatalf("Eval(%d) = %d, want identity", u, got)
		}
	}
}

func TestOmegaSingleConnectionAlwaysRoutable(t *testing.T) {
	o, _ := NewOmega(16)
	for u := 0; u < 16; u++ {
		for v := 0; v < 16; v++ {
			cfg := bitmat.NewSquare(16)
			cfg.Set(u, v)
			settings, err := o.Route(cfg)
			if err != nil {
				t.Fatalf("single connection %d->%d unroutable: %v", u, v, err)
			}
			if got := o.Eval(settings, u); got != v {
				t.Fatalf("Eval(%d) = %d, want %d", u, got, v)
			}
		}
	}
}

func TestOmegaIsBlocking(t *testing.T) {
	// An Omega network realizes at most 2^(switches) of the N! permutations,
	// so some full permutations must be blocked. Verify by counting over
	// all 4! permutations of a 4-port network: some realizable, some not.
	o, _ := NewOmega(4)
	perms := [][]int{}
	var gen func(cur []int, used int)
	gen = func(cur []int, used int) {
		if len(cur) == 4 {
			cp := make([]int, 4)
			copy(cp, cur)
			perms = append(perms, cp)
			return
		}
		for v := 0; v < 4; v++ {
			if used&(1<<v) == 0 {
				gen(append(cur, v), used|1<<v)
			}
		}
	}
	gen(nil, 0)
	if len(perms) != 24 {
		t.Fatalf("generated %d permutations", len(perms))
	}
	realizable := 0
	for _, p := range perms {
		if o.CanRealize(bitmat.FromPermutation(p)) {
			realizable++
		}
	}
	// A 4-port omega has 4 switches -> at most 16 distinct mappings.
	if realizable == 0 || realizable >= 24 {
		t.Fatalf("realizable = %d of 24: an omega must realize some but not all permutations", realizable)
	}
	if realizable > 16 {
		t.Fatalf("realizable = %d exceeds the 2^4 switch-setting bound", realizable)
	}
}

func TestOmegaRouteRejectsBadConfigs(t *testing.T) {
	o, _ := NewOmega(8)
	if _, err := o.Route(bitmat.NewSquare(4)); err == nil {
		t.Error("wrong shape should fail")
	}
	bad := bitmat.NewSquare(8)
	bad.Set(0, 1)
	bad.Set(2, 1)
	if _, err := o.Route(bad); err == nil {
		t.Error("non-permutation should fail")
	}
}

func TestOmegaEvalPanics(t *testing.T) {
	o, _ := NewOmega(4)
	settings, _ := o.Route(bitmat.NewSquare(4))
	for i, fn := range []func(){
		func() { o.Eval(settings, -1) },
		func() { o.Eval(settings, 4) },
		func() { o.Eval(Settings{}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestQuickOmegaRouteMatchesEval(t *testing.T) {
	o, _ := NewOmega(16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random sparse partial permutation: route if possible and verify.
		cfg := bitmat.NewSquare(16)
		perm := rng.Perm(16)
		for i, v := range perm {
			if rng.Float64() < 0.4 && i != v {
				if !cfg.RowAny(i) && !cfg.ColAny(v) {
					cfg.Set(i, v)
				}
			}
		}
		settings, err := o.Route(cfg)
		if err != nil {
			return true // blocked is a legal outcome; realizability tested elsewhere
		}
		ok := true
		cfg.Ones(func(u, v int) bool {
			if o.Eval(settings, u) != v {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOmegaCanRealizeMatchesRoute pins the settings-free realizability
// check to Route's verdict over random matrices — blocked and routable
// partial permutations as well as matrices that are not partial
// permutations at all.
func TestQuickOmegaCanRealizeMatchesRoute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 << rng.Intn(6)
		o, _ := NewOmega(n)
		cfg := bitmat.NewSquare(n)
		if rng.Intn(4) == 0 {
			for e := rng.Intn(n + 1); e > 0; e-- {
				cfg.Set(rng.Intn(n), rng.Intn(n))
			}
		} else {
			for i, v := range rng.Perm(n) {
				if rng.Float64() < 0.5 {
					cfg.Set(i, v)
				}
			}
		}
		_, err := o.Route(cfg)
		if got := o.CanRealize(cfg); got != (err == nil) {
			t.Errorf("n=%d: CanRealize %v, Route error %v\n%v", n, got, err, cfg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	o, _ := NewOmega(16)
	if o.CanRealize(bitmat.NewSquare(8)) {
		t.Error("CanRealize accepted a configuration of the wrong shape")
	}
}

// TestOmegaCanRealizeAllocationFree pins the scheduler-hook cost: the check
// runs for every candidate connection on an Omega fabric.
func TestOmegaCanRealizeAllocationFree(t *testing.T) {
	for _, n := range []int{16, 128, 4096} {
		o, _ := NewOmega(n)
		cfg := bitmat.FromPermutation(rand.New(rand.NewSource(1)).Perm(n))
		if allocs := testing.AllocsPerRun(10, func() { o.CanRealize(cfg) }); allocs != 0 {
			t.Errorf("n=%d: CanRealize allocates %.0f times per call", n, allocs)
		}
	}
}

func TestNewBenesValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12} {
		if _, err := NewBenes(n); err == nil {
			t.Errorf("NewBenes(%d) should fail", n)
		}
	}
	b, err := NewBenes(8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Ports() != 8 || b.Stages() != 5 {
		t.Fatalf("benes geometry wrong: %+v", b)
	}
	if b2, _ := NewBenes(2); b2.Stages() != 1 {
		t.Fatal("2-port benes is a single switch")
	}
}

func TestBenesRoutesEveryPermutation8(t *testing.T) {
	// Exhaustive over all 8!/(nothing) is 40320 — too many; use all 4! on a
	// 4-port network exhaustively, then random checks at 8.
	b4, _ := NewBenes(4)
	var gen func(cur []int, used int)
	count := 0
	gen = func(cur []int, used int) {
		if len(cur) == 4 {
			cfg := bitmat.FromPermutation(cur)
			r, err := b4.Route(cfg)
			if err != nil {
				t.Fatalf("benes failed to route %v: %v", cur, err)
			}
			if !r.Realizes(cfg) {
				t.Fatalf("benes misrouted %v", cur)
			}
			count++
			return
		}
		for v := 0; v < 4; v++ {
			if used&(1<<v) == 0 {
				gen(append(cur, v), used|1<<v)
			}
		}
	}
	gen(nil, 0)
	if count != 24 {
		t.Fatalf("checked %d permutations, want 24", count)
	}
}

func TestQuickBenesRearrangeable(t *testing.T) {
	// Any permutation on any power-of-two size up to 128 must route.
	f := func(seed int64, rawK uint8) bool {
		k := 1 + int(rawK)%7 // 2..128 ports
		n := 1 << k
		b, err := NewBenes(n)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		cfg := bitmat.FromPermutation(rng.Perm(n))
		r, err := b.Route(cfg)
		if err != nil {
			return false
		}
		return r.Realizes(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBenesPartialPermutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(4)) // 4..32
		b, _ := NewBenes(n)
		perm := rng.Perm(n)
		for i := range perm {
			if rng.Float64() < 0.5 {
				perm[i] = -1
			}
		}
		cfg := bitmat.FromPermutation(perm)
		r, err := b.Route(cfg)
		if err != nil {
			return false
		}
		return r.Realizes(cfg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBenesRejectsBadConfigs(t *testing.T) {
	b, _ := NewBenes(8)
	if _, err := b.Route(bitmat.NewSquare(4)); err == nil {
		t.Error("wrong shape should fail")
	}
	bad := bitmat.NewSquare(8)
	bad.Set(0, 1)
	bad.Set(2, 1)
	if _, err := b.Route(bad); err == nil {
		t.Error("non-permutation should fail")
	}
}

func TestBenesEvalPanics(t *testing.T) {
	b, _ := NewBenes(4)
	r, _ := b.Route(bitmat.Identity(4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Eval(9)
}

func TestDecomposeOmegaCoversAndRealizes(t *testing.T) {
	o, _ := NewOmega(16)
	rng := rand.New(rand.NewSource(5))
	ws := topology.NewWorkingSet(16)
	for ws.Len() < 40 {
		u, v := rng.Intn(16), rng.Intn(16)
		if u != v {
			ws.Add(topology.Conn{Src: u, Dst: v})
		}
	}
	configs, err := DecomposeOmega(ws, o)
	if err != nil {
		t.Fatal(err)
	}
	union := ws.Matrix()
	union.Reset()
	total := 0
	for i, cfg := range configs {
		if !o.CanRealize(cfg) {
			t.Fatalf("config %d not omega-realizable", i)
		}
		total += cfg.Count()
		union.Or(cfg)
	}
	if total != ws.Len() || !union.Equal(ws.Matrix()) {
		t.Fatal("omega decomposition must exactly cover the working set")
	}
	// The omega's blocking constraints can only increase the configuration
	// count over the crossbar optimum.
	if len(configs) < len(topology.Decompose(ws)) {
		t.Fatalf("omega decomposition (%d) cannot beat the crossbar optimum (%d)",
			len(configs), len(topology.Decompose(ws)))
	}
}

func TestDecomposeOmegaNeedsMoreSlotsThanCrossbar(t *testing.T) {
	// Take a full permutation the omega cannot realize in one pass (one
	// must exist: TestOmegaIsBlocking). A crossbar caches it in a single
	// configuration; the omega needs at least two TDM slots — the extra
	// multiplexing degree a blocking fabric pays.
	const n = 8
	o, _ := NewOmega(n)
	var blocked []int
	var gen func(cur []int, used int)
	gen = func(cur []int, used int) {
		if blocked != nil {
			return
		}
		if len(cur) == n {
			cfg := bitmat.FromPermutation(cur)
			fixedPoint := false
			for i, v := range cur {
				if i == v {
					fixedPoint = true
					break
				}
			}
			if !fixedPoint && !o.CanRealize(cfg) {
				blocked = append([]int(nil), cur...)
			}
			return
		}
		for v := 0; v < n; v++ {
			if used&(1<<v) == 0 {
				gen(append(cur, v), used|1<<v)
			}
		}
	}
	gen(nil, 0)
	if blocked == nil {
		t.Fatal("no omega-blocked derangement found: the fabric model is too permissive")
	}
	ws := topology.NewWorkingSet(n)
	for u, v := range blocked {
		ws.Add(topology.Conn{Src: u, Dst: v})
	}
	crossbar := topology.Decompose(ws)
	if len(crossbar) != 1 {
		t.Fatalf("a permutation should be one crossbar config, got %d", len(crossbar))
	}
	omega, err := DecomposeOmega(ws, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(omega) < 2 {
		t.Fatalf("the blocked permutation must need at least 2 omega configs, got %d", len(omega))
	}
	t.Logf("blocked permutation %v: crossbar 1 config, omega %d configs", blocked, len(omega))
}

func TestDecomposeOmegaShapeMismatch(t *testing.T) {
	o, _ := NewOmega(8)
	if _, err := DecomposeOmega(topology.NewWorkingSet(4), o); err == nil {
		t.Fatal("port mismatch should error")
	}
}
