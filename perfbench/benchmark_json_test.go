package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	compare := func(kind string, listed []m, code map[string]string) {
		seen := map[string]bool{}
		for _, l := range listed {
			if !validName(l.Name) {
				t.Errorf("%s metric %q: invalid name", kind, l.Name)
			}
			if seen[l.Name] {
				t.Errorf("%s metric %q listed twice", kind, l.Name)
			}
			seen[l.Name] = true
			if u, ok := code[l.Name]; !ok {
				t.Errorf("%s metric %q is listed but not printed", kind, l.Name)
			} else if u != l.Unit {
				t.Errorf("%s metric %q: listed unit %q, printed %q", kind, l.Name, l.Unit, u)
			}
		}
		for n := range code {
			if !seen[n] {
				t.Errorf("%s metric %q is printed but not listed", kind, n)
			}
		}
	}
	e2e := map[string]string{}
	for _, e := range endToEndMetrics {
		e2e[e.name] = e.unit
	}
	compare("end-to-end", spec.EndToEnd, e2e)
	layers := map[string]string{}
	for _, l := range layerMetrics {
		layers[l.name] = l.unit
	}
	compare("per-layer", spec.PerLayer, layers)
}
