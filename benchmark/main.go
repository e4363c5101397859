// Command benchmark is the repository's one end-to-end benchmark: it
// builds cmd/ocad, boots real ocad processes over loopback sockets with
// a data directory and fsync on, drives one of four named workloads
// with two closed-loop clients, checks every answer, and prints every
// metric by name and unit. BENCHMARK.json declares the metrics; see
// README.md beside this file.
//
//	go run ./benchmark --workload lookup --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -smoke
//	go run ./benchmark -selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workRoot holds everything the benchmark writes: the ocad binary, each
// invocation's scratch directory and the trace files. It sits inside
// the checkout and is git-ignored.
const workRoot = ".benchmark_work"

func main() {
	os.Exit(realMain())
}

// harness is one invocation's shared state.
type harness struct {
	decl   *declaration
	bin    string
	runDir string
	outDir string
	reg    *registry
}

func realMain() int {
	workload := flag.String("workload", "", "workload to run: lookup, search, mutate or mixed-single")
	seed := flag.Int64("seed", 1, "seed of every generated input (graph, request streams, mutations)")
	seconds := flag.Int("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload briefly on a 2k-node graph: correctness and schema checks only")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced pass in two sets and compare them against the declared bounds")
	out := flag.String("out", filepath.Join(workRoot, "out"), "directory for trace files")
	budget := flag.String("budget", "", "print the layer budget table of this trace file and exit")
	flag.Parse()
	if *budget != "" {
		if err := printBudget(*budget); err != nil {
			return fail(err)
		}
		return 0
	}

	decl, err := loadDeclaration(declarationFile)
	if err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		*seconds = decl.RunSeconds
	}
	h := &harness{decl: decl, outDir: *out, reg: &registry{}}
	h.runDir = filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid()))
	cleanup := func() {
		h.reg.stopAll()
		os.RemoveAll(h.runDir)
	}
	defer cleanup()
	// A panic unwinds through the deferred cleanup; a signal does not,
	// so it gets its own path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	if err := os.MkdirAll(h.runDir, 0o755); err != nil {
		return fail(err)
	}
	if h.bin, err = buildOcad(workRoot); err != nil {
		return fail(err)
	}

	switch {
	case *smoke:
		err = h.smoke()
	case *selfcheck:
		err = h.selfcheck(*seed, *seconds)
	default:
		ws, ok := workloadByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown -workload %q (want lookup, search, mutate or mixed-single)", *workload))
		}
		if *seconds < 1 {
			return fail(fmt.Errorf("-seconds %d must be at least 1", *seconds))
		}
		var res *runResult
		res, err = h.run(ws, *seed, time.Duration(*seconds)*time.Second, *trace != 0, false)
		if err == nil {
			printStamp(os.Stderr, res)
			printResult(os.Stderr, ws, res, decl.metrics(*trace != 0))
			err = emit(decl, res, *trace != 0)
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// run performs one workload run in its own scratch subdirectory.
func (h *harness) run(spec workloadSpec, seed int64, measure time.Duration, trace, smoke bool) (*runResult, error) {
	dir, err := os.MkdirTemp(h.runDir, spec.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res, err := runWorkload(runConfig{
		spec: spec, seed: seed, measure: measure, trace: trace, smoke: smoke,
		bin: h.bin, runDir: dir, outDir: h.outDir,
	}, h.reg)
	h.reg.stopAll()
	return res, err
}

// output is the driver-facing result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildOutput selects the pass's declared metrics from the result. A
// declared metric the run did not produce is an error, never a silent
// zero, and so is a measured metric BENCHMARK.json does not declare.
func buildOutput(decl *declaration, res *runResult, trace bool) (output, error) {
	o := output{
		Correct:   len(res.problems) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, m := range decl.metrics(trace) {
		v, ok := res.metrics[m.Name]
		if !ok {
			return o, fmt.Errorf("metric %s is declared in %s but was not measured", m.Name, declarationFile)
		}
		o.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range res.metrics {
		if !decl.declares(name) {
			return o, fmt.Errorf("metric %s was measured but is not declared in %s", name, declarationFile)
		}
	}
	return o, nil
}

// emit prints the result line; an incorrect run still prints it (with
// correct:false) and exits non-zero.
func emit(decl *declaration, res *runResult, trace bool) error {
	o, err := buildOutput(decl, res, trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.Correct {
		return fmt.Errorf("run incorrect: %d failed operations, %d violations:\n  %s",
			res.failed, len(res.problems), strings.Join(res.problems, "\n  "))
	}
	return nil
}

// printResult writes the human-readable table: every metric of the pass
// by name with its unit, then the per-class latencies and notes.
func printResult(w *os.File, spec workloadSpec, res *runResult, metrics []metricSpec) {
	fmt.Fprintf(w, "workload %s: fast = %s; slow = %s (tail p%g)\n", spec.Name, spec.Fast, spec.Slow, spec.SlowTail)
	for _, m := range metrics {
		if v, ok := res.metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	for cl, cs := range res.classes {
		if cs.n > 0 {
			fmt.Fprintf(w, "  class %-15s n=%-7d mean %.4f  p50 %.4f  p90 %.4f  p95 %.4f  p99 %.4f  p%g %.4f ms\n",
				classNames[cl], cs.n, cs.mean, cs.p50, cs.p90, cs.p95, cs.p99, cs.tailPercentile, cs.tail)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "  VIOLATION:", p)
	}
}

// printStamp writes the environment the numbers were taken in.
func printStamp(w *os.File, res *runResult) {
	cmdOut := func(name string, args ...string) string {
		b, err := exec.Command(name, args...).Output()
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	fmt.Fprintf(w, "env: commit %s; %s; nproc %d; GOMAXPROCS %d; kernel %s; data-dir filesystem %s; wal fsync on (daemon default)\n",
		cmdOut("git", "rev-parse", "--short", "HEAD"), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cmdOut("uname", "-r"), cmdOut("stat", "-f", "-c", "%T", workRoot))
	for _, l := range res.flagLines {
		fmt.Fprintln(w, "env:", l)
	}
}
