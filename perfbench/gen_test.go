package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"
)

// encodeSweep renders a point set canonically, one spec per line: the
// byte form the generator's determinism is checked on.
func encodeSweep(pts []sweepPoint) []byte {
	var b strings.Builder
	for _, p := range pts {
		b.WriteString(p.spec.String())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// cellMix counts the points per (model, chips, topology, network,
// strategy, batch-1 or not) cell: the mix every seed must share.
func cellMix(pts []sweepPoint) map[string]int {
	mix := map[string]int{}
	for _, p := range pts {
		s := p.spec
		mix[fmt.Sprint(s.Model, s.Chips, s.Topo, s.Net, s.Strategy, sweepBatches[s.Batch] == 1)]++
	}
	return mix
}

func TestGenSweepSeeded(t *testing.T) {
	a, b := genSweep(7), genSweep(7)
	if !bytes.Equal(encodeSweep(a), encodeSweep(b)) {
		t.Fatal("the same seed produced different inputs")
	}
	c := genSweep(8)
	if bytes.Equal(encodeSweep(a), encodeSweep(c)) {
		t.Fatal("a different seed produced the same inputs")
	}
	if !maps.Equal(cellMix(a), cellMix(c)) {
		t.Fatal("two seeds produced different axis mixes")
	}
	seen := map[string]bool{}
	for _, p := range a {
		if seen[p.spec.String()] {
			t.Fatalf("point %s drawn twice", p.spec)
		}
		seen[p.spec.String()] = true
	}
	// Every value of every axis is drawn.
	axes := []struct {
		name string
		n    int
		get  func(s spec) int
	}{
		{"model", len(sweepModels), func(s spec) int { return s.Model }},
		{"mode", len(sweepBatches), func(s spec) int { return s.Batch }},
		{"chips", len(sweepChips), func(s spec) int { return s.Chips }},
		{"topology", 4, func(s spec) int { return s.Topo }},
		{"network", len(sweepNets), func(s spec) int { return s.Net }},
		{"memory", len(sweepMems), func(s spec) int { return s.Mem }},
		{"strategy", len(sweepStrategies), func(s spec) int { return s.Strategy }},
	}
	for _, ax := range axes {
		used := map[int]bool{}
		for _, p := range a {
			used[ax.get(p.spec)] = true
		}
		if len(used) != ax.n {
			t.Errorf("axis %s: %d of %d values drawn", ax.name, len(used), ax.n)
		}
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}
