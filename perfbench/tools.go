package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runChild runs one benchmark invocation and returns its last stdout line,
// decoded. dir is the checkout to run in; an empty dir runs this binary in
// the current directory, otherwise dir's own perfbench/run.sh.
func runChild(dir string, args []string) (*output, error) {
	var cmd *exec.Cmd
	if dir == "" {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd = exec.Command(self, args...)
	} else {
		cmd = exec.Command("bash", append([]string{"perfbench/run.sh"}, args...)...)
		cmd.Dir = dir
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("%s %v: no result line (exit: %v)", dir, args, runErr)
	}
	if runErr != nil || !out.Correct {
		return &out, fmt.Errorf("%s %v: %d of %d operations failed (exit: %v)", dir, args, out.Failed, out.Attempted, runErr)
	}
	return &out, nil
}

// steadyMain runs one workload N times untraced, each with another seed,
// and prints each end-to-end metric's median, quartiles, min/max and spread (IQR / median). A
// spread above a tenth marks a metric that needs a steadier estimator; with
// a BENCHMARK.json in the current directory, spreads are also compared with
// a third of each end-to-end metric's bound.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 20, "--seconds of each run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		out, err := runChild("", []string{"--workload", *name, "--seed", strconv.FormatInt(*seed0+int64(i), 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0"})
		if err != nil {
			return err
		}
		for m, v := range out.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
		fmt.Fprintf(os.Stderr, "steady: run %d/%d done\n", i+1, *runs)
	}
	bounds := map[string]float64{}
	if spec, err := readBenchSpec("BENCHMARK.json"); err == nil {
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs\n%-28s %12s %12s %12s %12s %12s %8s  %s\n", *name, *runs,
		"metric", "median", "q1", "q3", "min", "max", "spread", "verdict")
	for _, m := range names {
		xs := values[m]
		q1, q3 := quartiles(xs)
		med := median(xs)
		spread := ratio(q3-q1, med)
		verdict := "steady"
		if spread > 0.1 {
			verdict = "needs a steadier estimator"
		}
		if b, ok := bounds[m]; ok {
			verdict += fmt.Sprintf("; bound %.2f: ", b)
			if spread < b/3 {
				verdict += "spread < bound/3"
			} else {
				verdict += "SPREAD TOO WIDE"
			}
		}
		fmt.Printf("%-28s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f  %s %s\n", m, med, q1, q3,
			minOf(xs), maxOf(xs), spread, verdict, units[m])
	}
	return nil
}

// abMain runs the benchmark on two checkouts, interleaved: pair i runs A
// then B for even i and B then A for odd i, both at seed 1+i. Each side
// runs its own perfbench/run.sh, so the benchmark code must be identical on
// both (copy this directory into the other checkout). One row per workload
// and end-to-end metric: each side's median and quartiles, the fraction of
// pairs B won, and a verdict under the bounds in BENCHMARK.json.
func abMain(args []string) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	a := fs.String("a", "", "baseline checkout (e.g. the parent commit)")
	b := fs.String("b", ".", "candidate checkout")
	list := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	pairs := fs.Int("pairs", 10, "number of A/B pairs")
	seconds := fs.Int("seconds", 20, "--seconds of each run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" {
		return errors.New("ab: --a is required")
	}
	spec, err := readBenchSpec(filepath.Join(*b, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var names []string
	if *list != "" {
		names = strings.Split(*list, ",")
	} else {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	fmt.Printf("%-12s %-18s %-34s %-34s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won", "verdict")
	for _, w := range names {
		vals := [2]map[string][]float64{{}, {}}
		for i := 0; i < *pairs; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				dir := []string{*a, *b}[side]
				out, err := runChild(dir, []string{"--workload", w, "--seed", strconv.Itoa(1 + i),
					"--seconds", strconv.Itoa(*seconds), "--trace", "0"})
				if err != nil {
					return err
				}
				for m, v := range out.Metrics {
					vals[side][m] = append(vals[side][m], v.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "ab: %s pair %d/%d done\n", w, i+1, *pairs)
		}
		for _, m := range spec.EndToEnd {
			fmt.Printf("%-12s %-18s %s\n", w, m.Name, abRow(m, vals[0][m.Name], vals[1][m.Name]))
		}
	}
	return nil
}

// abRow formats one metric's A/B comparison. Following the benchmark's
// rules: a gain needs B to win at least 9/10 of the pairs and the medians
// to differ by more than A's own quartile distance; a metric whose run-to-
// run spread exceeds its bound is unresolved unless every B run beats every
// A run; otherwise B regresses when its median is worse by more than the
// bound.
func abRow(m specMetric, a, b []float64) string {
	if len(a) == 0 || len(a) != len(b) {
		return "missing values"
	}
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	aq1, aq3 := quartiles(a)
	bq1, bq3 := quartiles(b)
	am, bm := median(a), median(b)
	worse := (bm - am) / am // relative change in the worse direction
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := maxOf(b) < minOf(a)
	if m.Better == "higher" {
		allBetter = minOf(b) > maxOf(a)
	}
	var verdict string
	switch {
	case allBetter || (float64(wins) >= 0.9*float64(len(a)) && abs(bm-am) > aq3-aq1):
		verdict = fmt.Sprintf("gain (%.1f%% better)", -100*worse)
	case ratio(aq3-aq1, am) > m.Bound || ratio(bq3-bq1, bm) > m.Bound:
		verdict = "unresolved (spread exceeds bound)"
	case worse > m.Bound:
		verdict = fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.0f%%)", 100*worse, 100*m.Bound)
	case worse > 0:
		verdict = fmt.Sprintf("within bound (%.1f%% worse)", 100*worse)
	default:
		verdict = fmt.Sprintf("within bound (%.1f%% better)", -100*worse)
	}
	return fmt.Sprintf("%-34s %-34s %6.2f  %s",
		fmt.Sprintf("%.5g [%.5g, %.5g]", am, aq1, aq3), fmt.Sprintf("%.5g [%.5g, %.5g]", bm, bq1, bq3),
		float64(wins)/float64(len(a)), verdict)
}

// pinMain recomputes the digest pins: one pass of every workload, full and
// smoke, at each pinned seed, written to perfbench/digests.json. Only a
// change that means to alter simulated behaviour re-pins.
func pinMain(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("pin takes no arguments")
	}
	pins := pinFile{}
	for _, scale := range []struct {
		name string
		list []workload
	}{{"full", workloads}, {"smoke", smokeWorkloads}} {
		pins[scale.name] = map[string]map[string]map[string]string{}
		for _, w := range scale.list {
			pins[scale.name][w.Name] = map[string]map[string]string{}
			for _, seed := range []int64{1, 2} { // the default seed and a held-out one
				seen := map[string]string{}
				res := runWorkload(w, runOpts{seed: seed, seconds: 0, seen: seen})
				if res.Failed > 0 {
					return fmt.Errorf("%s %s seed %d: %v", scale.name, w.Name, seed, res.Errors)
				}
				pins[scale.name][w.Name][strconv.FormatInt(seed, 10)] = seen
				fmt.Fprintf(os.Stderr, "pin: %s %s seed %d: %d digests\n", scale.name, w.Name, seed, len(seen))
			}
		}
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/digests.json", append(data, '\n'), 0o644)
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
