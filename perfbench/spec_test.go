package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSpecMatchesCode checks that BENCHMARK.json, the metric tables the
// benchmark emits and the interaction map name the same metrics.
func TestSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []m, code map[string]string) {
		seen := map[string]bool{}
		for _, x := range listed {
			if seen[x.Name] {
				t.Errorf("%s: %s listed twice", kind, x.Name)
			}
			seen[x.Name] = true
			unit, ok := code[x.Name]
			if !ok {
				t.Errorf("%s: %s is listed but not emitted", kind, x.Name)
			} else if unit != x.Unit {
				t.Errorf("%s: %s unit %q, code says %q", kind, x.Name, x.Unit, unit)
			}
			if x.Better != "higher" && x.Better != "lower" {
				t.Errorf("%s: %s better = %q", kind, x.Name, x.Better)
			}
		}
		for name := range code {
			if !seen[name] {
				t.Errorf("%s: %s is emitted but not listed", kind, name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, w := range []string{"echo", "poisson", "crypt"} {
		if !workloads[w] {
			t.Errorf("workload %s not listed", w)
		}
	}

	raw, err = os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var inter struct {
		Metrics map[string]struct {
			Moves, Holds [][2]string
			How          string
		}
	}
	if err := json.Unmarshal(raw, &inter); err != nil {
		t.Fatal(err)
	}
	for name := range perLayerUnits {
		e, ok := inter.Metrics[name]
		if !ok {
			t.Errorf("interactions.json has no entry for %s", name)
			continue
		}
		if e.How == "" {
			t.Errorf("interactions.json: %s does not say how it is measured", name)
		}
		for _, pair := range append(e.Moves, e.Holds...) {
			if !workloads[pair[0]] {
				t.Errorf("interactions.json: %s names workload %q", name, pair[0])
			}
			_, gated := endToEndUnits[pair[1]]
			if _, tail := tailUnits[pair[1]]; !gated && !tail {
				t.Errorf("interactions.json: %s names end-to-end metric %q", name, pair[1])
			}
		}
	}
	for name := range inter.Metrics {
		if _, ok := perLayerUnits[name]; !ok {
			t.Errorf("interactions.json: %s is not a per-layer metric", name)
		}
	}
}

func TestEmitRequiresExactlyTheDeclaredMetrics(t *testing.T) {
	units := map[string]string{"a": "s", "b": "ms"}
	if _, err := emit(map[string]float64{"a": 1}, units); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := emit(map[string]float64{"a": 1, "b": 2, "c": 3}, units); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if _, err := emit(map[string]float64{"a": 1, "b": 1.0 / zero()}, units); err == nil {
		t.Error("an infinite value was accepted")
	}
	got, err := emit(map[string]float64{"a": 1.25, "b": 2}, units)
	if err != nil || got["a"] != (metric{1.25, "s"}) {
		t.Errorf("emit = %v, %v", got, err)
	}
}

func zero() float64 { return 0 }
