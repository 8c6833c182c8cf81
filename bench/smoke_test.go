package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestSmoke keeps the harness from rotting: every workload runs for about a
// second on a tiny database, end to end and traced, and what it prints must
// carry exactly the workload and metric names BENCHMARK.json fixes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts moaserve processes; skipped under -short")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, e := range list {
			out = append(out, e.Name)
		}
		slices.Sort(out)
		return out
	}
	same := func(what string, got map[string]metric, want []string) {
		t.Helper()
		if have := slices.Sorted(maps.Keys(got)); !slices.Equal(have, want) {
			t.Fatalf("%s: printed metrics %v, BENCHMARK.json names %v", what, have, want)
		}
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	build := t.TempDir()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		w.sf = 0.002
		res, err := runEndToEnd(w, 1, 1, root, build)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: end to end: %d failed of %d", w.name, res.Failed, res.Attempted)
		}
		same(w.name, res.Metrics, names(spec.EndToEnd))
		for k, m := range res.Metrics {
			if m.Value <= 0 {
				t.Fatalf("%s: %s = %v", w.name, k, m.Value)
			}
		}
		if res, err = runLayers(w, 1, 1, build); err != nil {
			t.Fatalf("%s: traced: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: traced: %d failed of %d", w.name, res.Failed, res.Attempted)
		}
		same(w.name+" traced", res.Metrics, names(spec.PerLayer))
	}
}
