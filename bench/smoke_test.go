package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs all four workloads at about 1/100 scale through the
// whole in-process pipeline — load, serial and concurrent replays with
// every answer checked, final-contents check, probes, recovery — so
// `go test ./...` keeps the harness compiling and its checks honest.
// The spawned-daemon pass is the same loop over a different executor;
// it needs a built snapdbd and stays with `go run ./bench`.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test skipped in -short mode")
	}
	for _, w := range workloads {
		o := &runOptions{w: w.scaled(100), seed: 1, seconds: 0.1, root: t.TempDir(), probeDiv: 1000, outDir: t.TempDir()}
		r := runTraced(o, &runResult{metrics: map[string]metric{}})
		if r.err != nil {
			t.Fatalf("%s: %v", w.name, r.err)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed verification", w.name, r.failed, r.attempted)
		}
		for _, def := range perLayer {
			if _, ok := r.metrics[def.name]; !ok {
				t.Errorf("%s: per-layer metric %s was not produced", w.name, def.name)
			}
		}
		if len(r.classes) == 0 {
			t.Errorf("%s: no statement-class cost rows", w.name)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metric catalogue the program reports from in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, catalogue %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q (or their reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, catalogue %+v", i, d, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, catalogue %+v", i, d, m)
		}
	}
}
