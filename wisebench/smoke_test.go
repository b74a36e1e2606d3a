package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// run checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, against a
// wise-serve built from this tree, and checks that each run is correct and
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wise-serve and trains a model")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	want := [2]map[string]string{units(spec.EndToEnd), units(spec.PerLayer)}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, wl := range workloads {
		ours = append(ours, wl.name)
	}
	slices.Sort(names)
	slices.Sort(ours)
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "wise-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "wise/cmd/wise-serve").CombinedOutput(); err != nil {
		t.Fatalf("building wise-serve: %v\n%s", err, out)
	}
	for _, wl := range workloads {
		for traced := 0; traced < 2; traced++ {
			res, err := runWorkload(wl, 5, 300*time.Millisecond, traced == 1, bin, dir)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", wl.name, traced, len(res.Metrics), len(want[traced]))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[traced][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s [%s] not in BENCHMARK.json as [%s]", wl.name, traced, name, m.Unit, unit)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "spans-ingest-mix-seed5.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}
