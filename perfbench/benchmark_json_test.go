package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json, the metric sets the code
// reports and layer_map.json in step.
func TestBenchmarkJSON(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if c := endToEnd[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end_to_end[%d] = %s %s %s, code has %s %s %s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bench.PerLayer), len(perLayer))
	}
	var layerMap map[string]struct{ Moves, Unchanged []string }
	if b, err = os.ReadFile("layer_map.json"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &layerMap); err != nil {
		t.Fatal(err)
	}
	for i, m := range bench.PerLayer {
		if c := perLayer[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] = %s %s %s, code has %s %s %s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
		if _, ok := layerMap[m.Name]; !ok {
			t.Errorf("layer_map.json has no entry for %s", m.Name)
		}
	}
	if len(layerMap) != len(bench.PerLayer) {
		t.Errorf("layer_map.json has %d entries for %d per-layer metrics", len(layerMap), len(bench.PerLayer))
	}
}
