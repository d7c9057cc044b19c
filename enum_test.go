package pmsnet

import (
	"errors"
	"strings"
	"testing"
)

// enumCase describes one public enum for TestEnumNames: its values in flag
// order with their canonical names, its parser, and the exact messages an
// unknown name (Parse), an unknown value (Validate) and an out-of-range
// String produce.
type enumCase struct {
	typ      string
	names    []string
	strs     func() []string // String() of every value, in order
	vocab    func() []string // the *Names() vocabulary
	parse    func(string) (int, error)
	unknown  string // a name Parse must reject
	parseErr string
	invalid  Config // a Config whose enum field holds the value 99
	field    string
	checkErr string
	outOfRng string // String() of value 99
}

func TestEnumNames(t *testing.T) {
	cases := []enumCase{
		{
			typ:   "Switching",
			names: []string{"wormhole", "circuit", "tdm-dynamic", "tdm-preload", "tdm-hybrid", "voq-islip", "mesh-wormhole", "mesh-tdm"},
			strs: func() []string {
				return strs(Wormhole, CircuitSwitching, DynamicTDM, PreloadTDM, HybridTDM, VOQISLIP, MeshWormhole, MeshTDM)
			},
			vocab:    SwitchingNames,
			parse:    func(s string) (int, error) { v, err := ParseSwitching(s); return int(v), err },
			unknown:  "crossbar",
			parseErr: `pmsnet: unknown switching paradigm "crossbar" (valid: wormhole, circuit, tdm-dynamic, tdm-preload, tdm-hybrid, voq-islip, mesh-wormhole, mesh-tdm)`,
			invalid:  Config{Switching: Switching(99), N: 16},
			field:    "Switching",
			checkErr: "pmsnet: invalid Config.Switching (99): unknown paradigm (valid: wormhole, circuit, tdm-dynamic, tdm-preload, tdm-hybrid, voq-islip, mesh-wormhole, mesh-tdm)",
			outOfRng: Switching(99).String(),
		},
		{
			typ:   "EvictionPolicy",
			names: []string{"reactive", "timeout", "counter", "never", "markov"},
			strs: func() []string {
				return strs(ReleaseOnEmpty, TimeoutEviction, CounterEviction, NeverEvict, MarkovPrefetch)
			},
			vocab:    EvictionNames,
			parse:    func(s string) (int, error) { v, err := ParseEviction(s); return int(v), err },
			unknown:  "lru",
			parseErr: `pmsnet: unknown eviction policy "lru" (valid: reactive, timeout, counter, never, markov)`,
			invalid:  Config{Switching: DynamicTDM, N: 16, Eviction: EvictionPolicy(99)},
			field:    "Eviction",
			checkErr: "pmsnet: invalid Config.Eviction (99): unknown policy (valid: reactive, timeout, counter, never, markov)",
			outOfRng: EvictionPolicy(99).String(),
		},
		{
			typ:      "Fabric",
			names:    []string{"crossbar", "omega", "clos", "benes"},
			strs:     func() []string { return strs(FabricCrossbar, FabricOmega, FabricClos, FabricBenes) },
			vocab:    FabricNames,
			parse:    func(s string) (int, error) { v, err := ParseFabric(s); return int(v), err },
			unknown:  "banyan",
			parseErr: `pmsnet: unknown fabric "banyan" (valid: crossbar, omega, clos, benes)`,
			invalid:  Config{Switching: DynamicTDM, N: 16, Fabric: Fabric(99)},
			field:    "Fabric",
			checkErr: "pmsnet: invalid Config.Fabric (99): unknown fabric (valid: crossbar, omega, clos, benes)",
			outOfRng: Fabric(99).String(),
		},
		{
			typ:      "Scheduler",
			names:    []string{"paper", "islip", "wavefront"},
			strs:     func() []string { return strs(SchedulerPaper, SchedulerISLIP, SchedulerWavefront) },
			vocab:    SchedulerNames,
			parse:    func(s string) (int, error) { v, err := ParseScheduler(s); return int(v), err },
			unknown:  "pim",
			parseErr: `pmsnet: unknown scheduler "pim" (valid: paper, islip, wavefront)`,
			invalid:  Config{Switching: DynamicTDM, N: 16, Scheduler: Scheduler(99)},
			field:    "Scheduler",
			checkErr: "pmsnet: invalid Config.Scheduler (99): unknown scheduler (valid: paper, islip, wavefront)",
			outOfRng: Scheduler(99).String(),
		},
		{
			typ:      "Planner",
			names:    []string{"static", "solstice", "bvn"},
			strs:     func() []string { return strs(PlannerStatic, PlannerSolstice, PlannerBvN) },
			vocab:    PlannerNames,
			parse:    func(s string) (int, error) { v, err := ParsePlanner(s); return int(v), err },
			unknown:  "greedy",
			parseErr: `pmsnet: unknown planner "greedy" (valid: static, solstice, bvn)`,
			invalid:  Config{Switching: PreloadTDM, N: 16, Planner: Planner(99)},
			field:    "Planner",
			checkErr: "pmsnet: invalid Config.Planner (99): unknown planner (valid: static, solstice, bvn)",
			outOfRng: Planner(99).String(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.typ, func(t *testing.T) {
			want := strings.Join(tc.names, ",")
			if got := strings.Join(tc.strs(), ","); got != want {
				t.Errorf("String() over the values = %q, want %q", got, want)
			}
			if got := strings.Join(tc.vocab(), ","); got != want {
				t.Errorf("Names() = %q, want %q", got, want)
			}
			for i, name := range tc.names {
				t.Run(name, func(t *testing.T) {
					v, err := tc.parse(name)
					if err != nil || v != i {
						t.Errorf("Parse(%q) = %d, %v; want %d", name, v, err, i)
					}
					if got := tc.strs()[i]; got != name {
						t.Errorf("String() of value %d = %q, want %q", i, got, name)
					}
				})
			}
			if _, err := tc.parse(tc.unknown); err == nil || err.Error() != tc.parseErr {
				t.Errorf("Parse(%q) error = %v\nwant %s", tc.unknown, err, tc.parseErr)
			}
			err := tc.invalid.Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("Validate = %v, want a *ConfigError on %s", err, tc.field)
			}
			if err.Error() != tc.checkErr {
				t.Errorf("Validate error = %s\nwant %s", err, tc.checkErr)
			}
			if want := tc.typ + "(99)"; tc.outOfRng != want {
				t.Errorf("String() of 99 = %q, want %q", tc.outOfRng, want)
			}
		})
	}
}

// strs renders each value with its String method.
func strs[T interface{ String() string }](vs ...T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}
