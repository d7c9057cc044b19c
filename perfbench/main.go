// Command perfbench is pmsnet's end-to-end benchmark. It runs one named
// workload through the public entry points — pmsnet.GenerateWorkload,
// AnalyzeWorkload and Run for the library workloads, an in-process
// service.Server on loopback for pmsd-mix — checks every output, and prints
// each metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload churn-1024 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh steady --workload churn-1024 --runs 5
//	bash perfbench/run.sh ab --a ../parent --b . --pairs 10
//	bash perfbench/run.sh pin
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
// prints the per-layer ledger. See perfbench/README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
)

//go:embed digests.json
var digestsJSON []byte

// pinFile is the layout of digests.json: scale ("full" or "smoke") →
// workload → seed → job key → report digest.
type pinFile map[string]map[string]map[string]map[string]string

// runOpts are the settings of one benchmark run.
type runOpts struct {
	seed    int64
	seconds int
	trace   bool
	pins    map[string]string // job key → pinned digest, for this seed
	seen    map[string]string // job key → digest seen this run
	outDir  string
}

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "steady":
			err = steadyMain(os.Args[2:])
		case "ab":
			err = abMain(os.Args[2:])
		case "pin":
			err = pinMain(os.Args[2:])
		default:
			os.Exit(benchMain(os.Args[1:]))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(nil))
}

// benchMain runs one workload and prints its result; it returns the exit
// code.
func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-fig45, churn-1024, hybrid-plan or pmsd-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measurement length; sets the fixed number of passes")
	trace := fs.Int("trace", 0, "1: print the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Two Ps: the service workload's 2 workers and 2 clients, and the same
	// GC parallelism on any machine.
	runtime.GOMAXPROCS(2)
	w, err := findWorkload(workloads, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1,
		pins: pins["full"][w.Name][strconv.FormatInt(*seed, 10)], seen: map[string]string{}, outDir: ".bench_build"})
	printResult(os.Stdout, w.Name, res)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func runWorkload(w workload, o runOpts) *result {
	if w.svcJobs != nil {
		return runService(w, o)
	}
	return runLibrary(w, o)
}

func loadPins() (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(digestsJSON, &p); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return p, nil
}

// output is the JSON object of the last line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(f io.Writer, name string, res *result) {
	for _, m := range res.Order {
		if v := res.Metrics[m].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(fmt.Errorf("metric %s is %v", m, v))
			res.Metrics[m] = metric{Value: 0, Unit: res.Metrics[m].Unit}
		}
	}
	fmt.Fprintf(f, "# workload %s: %d operations attempted, %d failed (error_rate %.4g)\n",
		name, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(max(1, res.Attempted))))
	for _, n := range res.Notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(f, "# FAILED: %s\n", e)
	}
	for _, m := range res.Order {
		fmt.Fprintf(f, "%-28s %14.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	data, err := json.Marshal(output{Correct: res.Failed == 0 && res.Attempted > 0,
		Attempted: max(1, res.Attempted), Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		panic(err) // every value is a finite float64 by now
	}
	fmt.Fprintln(f, string(data))
}
