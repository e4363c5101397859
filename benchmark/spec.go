package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// declarationFile is BENCHMARK.json, relative to the repository root the
// harness runs from. It is the one place metrics, units, directions and
// bounds are declared; the harness reads it at start-up.
const declarationFile = "BENCHMARK.json"

// metricSpec is one metric BENCHMARK.json declares. Per-layer metrics
// carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var d declaration
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// metrics is the list a pass reports: per-layer when traced, end-to-end
// otherwise.
func (d *declaration) metrics(trace bool) []metricSpec {
	if trace {
		return d.PerLayer
	}
	return d.EndToEnd
}

// declares reports whether either list names the metric.
func (d *declaration) declares(name string) bool {
	for _, list := range [][]metricSpec{d.EndToEnd, d.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return true
			}
		}
	}
	return false
}

// workloadSpec names one workload and what its fast and slow request
// classes are (the end-to-end latency metrics are per class, and every
// workload reports every metric). Why each workload exists is in
// BENCHMARK.json and the README.
type workloadSpec struct {
	Name string
	// Fast and Slow describe FastClass and SlowClass, the classes the
	// fast_* and slow_* metrics quote.
	Fast, Slow           string
	FastClass, SlowClass class
	// SlowTail is the percentile slow_tail_ms quotes: the highest one
	// with at least ten samples beyond it at the declared run length.
	SlowTail float64
}

var workloads = []workloadSpec{
	{
		Name: "lookup",
		Fast: "single lookup", Slow: "batch-64 lookup", FastClass: clLookup, SlowClass: clBatch, SlowTail: 99,
	},
	{
		Name: "search",
		Fast: "cached search (response cached:true)", Slow: "cold search (cached:false)",
		FastClass: clSearchHot, SlowClass: clSearchCold, SlowTail: 99,
	},
	{
		Name: "mutate",
		Fast: "single lookup beside the writes", Slow: "wait:true mutation until readable",
		FastClass: clLookup, SlowClass: clMutate, SlowTail: 90,
	},
	{
		Name: "mixed-single",
		Fast: "single lookup", Slow: "search that missed the cache (cached:false)",
		FastClass: clLookup, SlowClass: clSearchCold, SlowTail: 99,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
