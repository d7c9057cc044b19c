package pmsnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	base := Config{Switching: DynamicTDM, N: 16}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"unknown switching", Config{Switching: Switching(99), N: 16}, "Switching"},
		{"one processor", Config{Switching: DynamicTDM, N: 1}, "N"},
		{"negative K", Config{Switching: DynamicTDM, N: 16, K: -1}, "K"},
		{"unknown eviction", Config{Switching: DynamicTDM, N: 16, Eviction: EvictionPolicy(42)}, "Eviction"},
		{"preload slots above K", Config{Switching: HybridTDM, N: 16, K: 4, PreloadSlots: 5}, "PreloadSlots"},
		{"negative preload slots", Config{Switching: HybridTDM, N: 16, PreloadSlots: -1}, "PreloadSlots"},
		{"negative amplify", Config{Switching: DynamicTDM, N: 16, AmplifyBytes: -1}, "AmplifyBytes"},
		{"unknown planner", Config{Switching: PreloadTDM, N: 16, Planner: Planner(42)}, "Planner"},
		{"planner on wormhole", Config{Switching: Wormhole, N: 16, Planner: PlannerSolstice}, "Planner"},
		{"planner on dynamic TDM", Config{Switching: DynamicTDM, N: 16, Planner: PlannerBvN}, "Planner"},
		{"planner without pinned slots", Config{Switching: HybridTDM, N: 16, Planner: PlannerSolstice}, "Planner"},
		{"negative parallelism", Config{Switching: DynamicTDM, N: 16, Parallelism: -2}, "Parallelism"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted the config", tc.name)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error %T is not *ConfigError", tc.name, err)
		}
		if ce.Field != tc.field {
			t.Fatalf("%s: got field %q, want %q (err: %v)", tc.name, ce.Field, tc.field, err)
		}
		if !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Fatalf("%s: message %q should name Config.%s", tc.name, err, tc.field)
		}
	}
	// Run surfaces the same typed error.
	_, err := Run(Config{Switching: DynamicTDM, N: 1}, RandomMesh(8, 32, 2, 1))
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "N" {
		t.Fatalf("Run should return the *ConfigError for N, got %v", err)
	}
	// Eviction is irrelevant to (and unchecked for) the non-TDM baselines.
	if err := (Config{Switching: Wormhole, N: 16, Eviction: EvictionPolicy(42)}).Validate(); err != nil {
		t.Fatalf("baseline config should ignore Eviction: %v", err)
	}
}

func TestRunManyRejectsProbe(t *testing.T) {
	wl := RandomMesh(8, 32, 2, 1)
	cfg := Config{Switching: DynamicTDM, N: 8, Probe: NewProbe(NewCounterSink())}
	_, err := RunMany(cfg, []*Workload{wl})
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Probe" {
		t.Fatalf("RunMany should reject Config.Probe with a *ConfigError, got %v", err)
	}
}

// TestProbeBitIdentity checks the tentpole's core guarantee: attaching a
// probe never changes the simulation. Every switching mode is run bare and
// probed, and the two Reports must be equal field for field.
func TestProbeBitIdentity(t *testing.T) {
	for _, sw := range []Switching{
		Wormhole, CircuitSwitching, DynamicTDM, PreloadTDM, HybridTDM,
		VOQISLIP, MeshWormhole, MeshTDM,
	} {
		t.Run(sw.String(), func(t *testing.T) {
			wl := RandomMesh(16, 64, 5, 2)
			if sw == PreloadTDM || sw == HybridTDM {
				an, _, err := AnalyzeWorkload(wl)
				if err != nil {
					t.Fatal(err)
				}
				wl = an
			}
			cfg := Config{Switching: sw, N: 16, K: 4, PreloadSlots: 1}
			bare, err := Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			counter := NewCounterSink()
			cfg.Probe = NewProbe(counter)
			probed, err := Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			// Faults is a pointer; both runs are fault-free so both are nil.
			if bare.Faults != nil || probed.Faults != nil {
				t.Fatal("fault-free runs should have nil FaultReport")
			}
			if bare != probed {
				t.Fatalf("probed report differs:\nbare:   %+v\nprobed: %+v", bare, probed)
			}
			if counter.Total() == 0 {
				t.Fatal("probe saw no events")
			}
		})
	}
}

// TestProbeBitIdentityAcrossFabrics extends the probe-off guarantee over the
// fabric backends: a probed dynamic-TDM run on each fabric must match its
// bare twin field for field.
func TestProbeBitIdentityAcrossFabrics(t *testing.T) {
	for _, f := range []Fabric{FabricCrossbar, FabricOmega, FabricClos, FabricBenes} {
		t.Run(f.String(), func(t *testing.T) {
			wl := RandomMesh(16, 64, 5, 2)
			cfg := Config{Switching: DynamicTDM, N: 16, K: 4, Fabric: f}
			bare, err := Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			counter := NewCounterSink()
			cfg.Probe = NewProbe(counter)
			probed, err := Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if bare != probed {
				t.Fatalf("probed report differs:\nbare:   %+v\nprobed: %+v", bare, probed)
			}
			if counter.Total() == 0 {
				t.Fatal("probe saw no events")
			}
		})
	}
}

// TestTraceIsValidChromeTrace runs a probed DynamicTDM simulation through the
// TraceWriter and checks that the output is a valid Chrome trace-event JSON
// array covering the scheduler, connection and message lifecycles.
func TestTraceIsValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	cfg := Config{
		Switching: DynamicTDM, N: 16,
		EvictionTimeout: 250 * time.Nanosecond,
		Probe:           NewProbe(tw),
	}
	rep, err := Run(cfg, RandomMesh(16, 64, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	phases := map[string]int{}
	cats := map[string]int{}
	for _, ev := range events {
		ph, ok := ev["ph"].(string)
		if !ok {
			t.Fatalf("event without ph: %v", ev)
		}
		phases[ph]++
		if c, ok := ev["cat"].(string); ok {
			cats[c]++
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event without pid: %v", ev)
		}
	}
	// One B/E pair per scheduling pass, matching the Report exactly.
	if phases["B"] != int(rep.Sched.Passes) || phases["E"] != int(rep.Sched.Passes) {
		t.Fatalf("got %d B / %d E events, want %d scheduler passes each",
			phases["B"], phases["E"], rep.Sched.Passes)
	}
	for _, cat := range []string{"slot", "sched", "conn", "msg"} {
		if cats[cat] == 0 {
			t.Fatalf("trace has no %q events (cats: %v)", cat, cats)
		}
	}
	// Every message opens and closes an async span; connections add more.
	if phases["b"] < rep.Messages || phases["e"] < rep.Messages {
		t.Fatalf("got %d b / %d e events for %d messages", phases["b"], phases["e"], rep.Messages)
	}
}
