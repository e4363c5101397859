package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// smoke runs every workload briefly on the 2k-node graph: correctness
// and schema checks only. Latencies are printed, not judged, so the mode
// is fit for CI. One traced run per workload covers both passes: it
// measures the end-to-end metrics on its way to the per-layer ones.
func (h *harness) smoke() error {
	const smokePhase = 2 * time.Second
	for _, spec := range workloads {
		res, err := h.run(spec, 1, smokePhase, true, true)
		if err != nil {
			return fmt.Errorf("smoke %s: %w", spec.Name, err)
		}
		for _, trace := range []bool{false, true} {
			o, err := buildOutput(h.decl, res, trace)
			if err != nil {
				return fmt.Errorf("smoke %s: %w", spec.Name, err)
			}
			printResult(os.Stderr, spec, res, h.decl.metrics(trace))
			if !o.Correct {
				return fmt.Errorf("smoke %s: %d failed operations, violations %q", spec.Name, res.failed, res.problems)
			}
		}
	}
	fmt.Println("smoke: ok")
	return nil
}

// worse is how much worse b is than a for the metric's direction, as a
// share of a: positive means a regression.
func worse(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// exactCounts are the per-layer counts that must repeat exactly for a
// seed: taken single-threaded on fixed inputs.
var exactCounts = []string{
	"core.full_seeds_tried", "core.full_steps", "core.restrict_seeds_tried", "core.restrict_steps",
	"wal.bytes_per_batch", "persist.segment_bytes", "transport.snapshot_bytes", "shard.ghost_ratio",
}

// selfcheckRuns is how many untraced runs each of selfcheck's two sets
// makes per workload.
const selfcheckRuns = 3

// selfcheck measures the same build twice the way the driver does — two
// sets of runs per workload, each run on another seed, compared by
// their medians — and fails when the second set is worse than the first
// by more than a metric's declared bound. One traced run per set checks
// that the exact counts repeat and the allocation counts agree to 1 %.
func (h *harness) selfcheck(seed int64, seconds int) error {
	measure := time.Duration(seconds) * time.Second
	failed := false
	fmt.Printf("%-13s %-14s %12s %12s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	for _, spec := range workloads {
		var sets [2]map[string][]float64
		var traced [2]map[string]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for i := 0; i < selfcheckRuns; i++ {
				res, err := h.run(spec, seed+int64(i), measure, false, false)
				if err != nil {
					return err
				}
				o, err := buildOutput(h.decl, res, false)
				if err != nil {
					return err
				}
				if !o.Correct {
					return fmt.Errorf("%s seed %d incorrect: %d failed, violations %q", spec.Name, seed+int64(i), res.failed, res.problems)
				}
				for name, v := range o.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
			res, err := h.run(spec, seed, measure, true, false)
			if err != nil {
				return err
			}
			if len(res.problems) > 0 || res.failed > 0 {
				return fmt.Errorf("%s traced run incorrect: %d failed, violations %q", spec.Name, res.failed, res.problems)
			}
			traced[set] = res.metrics
		}
		for _, m := range h.decl.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			w := worse(m, a, b)
			verdict := ""
			if w > m.Bound {
				verdict, failed = "  EXCEEDS BOUND", true
			}
			fmt.Printf("%-13s %-14s %12.4f %12.4f %8.1f%% %6.0f%%%s\n", spec.Name, m.Name, a, b, 100*w, 100*m.Bound, verdict)
		}
		for _, name := range exactCounts {
			if traced[0][name] != traced[1][name] {
				fmt.Printf("%-13s %s differs between the traced runs: %v vs %v\n", spec.Name, name, traced[0][name], traced[1][name])
				failed = true
			}
		}
		for _, name := range []string{"server.allocs_per_lookup", "server.allocs_per_batch"} {
			a, b := traced[0][name], traced[1][name]
			if d := (b - a) / a; d > 0.01 || d < -0.01 {
				fmt.Printf("%-13s %s differs by more than 1%%: %v vs %v\n", spec.Name, name, a, b)
				failed = true
			}
		}
		fmt.Printf("%-13s trace.overhead_ratio %.3f and %.3f\n", spec.Name,
			traced[0]["trace.overhead_ratio"], traced[1]["trace.overhead_ratio"])
	}
	if failed {
		return fmt.Errorf("selfcheck: the two sets disagree beyond the declared bounds")
	}
	fmt.Println("selfcheck: ok")
	return nil
}

// printBudget reads a trace file and prints its layer budget table.
func printBudget(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.NewDecoder(f).Decode(&tr); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if s := childrenWithinParents(tr.Spans); s != nil {
		return fmt.Errorf("%s: span %d (%s) leaves its parent's interval", path, s.ID, s.Name)
	}
	fmt.Print(budgetTable(tr.Spans))
	return nil
}
