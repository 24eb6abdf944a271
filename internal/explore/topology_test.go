package explore

import (
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// TestTopologyFrontierGrid builds the topology x chip-count grid from
// one Frontier per run topology and marks the Pareto front across the
// whole grid, as the plain topology sweep reads it.
func TestTopologyFrontierGrid(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	chips := []int{2, 4, 8}
	topos := hw.Topologies()
	var points []Point
	for _, topo := range topos {
		base := core.DefaultSystem(1)
		base.HW.Topology = topo
		row, err := Frontier(base, wl, chips)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, row...)
	}
	markPareto(points)
	if len(points) != len(topos)*len(chips) {
		t.Fatalf("%d points, want %d", len(points), len(topos)*len(chips))
	}
	// Grid order: topology-major, chips ascending, reports populated
	// and consistent with the point's own configuration.
	anyPareto := false
	for i, p := range points {
		topo := topos[i/len(chips)]
		if p.Chips != chips[i%len(chips)] {
			t.Fatalf("point %d = (%s, %d), want (%s, %d)",
				i, topo, p.Chips, topo, chips[i%len(chips)])
		}
		if p.Report == nil || p.Report.System.HW.Topology != topo ||
			p.Report.System.Chips != p.Chips {
			t.Fatalf("point %d report does not match its configuration", i)
		}
		anyPareto = anyPareto || p.Pareto
	}
	if !anyPareto {
		t.Fatal("no Pareto-optimal point in the grid")
	}
	// A dominated point must not be flagged: anything strictly worse
	// on both axes than another grid point with a flag is a bug.
	for i, p := range points {
		if !p.Pareto {
			continue
		}
		for j, q := range points {
			if q.Report.Seconds < p.Report.Seconds &&
				q.Report.Energy.Total() < p.Report.Energy.Total() {
				t.Fatalf("(%s, %d chips) flagged Pareto but dominated by (%s, %d chips)",
					topos[i/len(chips)], p.Chips, topos[j/len(chips)], q.Chips)
			}
		}
	}
}

// The best uniform topology AutotunePlan reports is the fastest of the
// run topologies, and its report was evaluated on that topology.
func TestBestTopologyPicksMinimumLatency(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	base := core.DefaultSystem(8)
	res, err := AutotunePlan(base, wl)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.UniformReport
	if rep == nil {
		t.Fatal("no report")
	}
	for _, other := range hw.Topologies() {
		sys := base
		sys.HW.Topology = other
		r, err := core.Run(sys, wl)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles < rep.Cycles {
			t.Errorf("best uniform %s (%.0f cycles) but %s is faster (%.0f)",
				res.BestUniform, rep.Cycles, other, r.Cycles)
		}
	}
	if rep.System.HW.Topology != res.BestUniform {
		t.Errorf("uniform report's topology %s != %s", rep.System.HW.Topology, res.BestUniform)
	}
}

// The best uniform topology must weigh the backhaul penalty: on the
// uniform network the 8-chip TinyLlama collectives belong to the ring,
// but under the clustered backhaul the ring serializes its slow
// boundary hops 2(N-1) times and the fully-connected exchange — one
// hop level, every pairwise send on its own link — takes over.
func TestBestTopologyAwareOfBackhaul(t *testing.T) {
	for _, mode := range []model.Mode{model.Autoregressive, model.Prompt} {
		wl := core.Workload{Model: model.TinyLlama42M(), Mode: mode}

		uniform, err := AutotunePlan(core.DefaultSystem(8), wl)
		if err != nil {
			t.Fatal(err)
		}
		if uniform.BestUniform != hw.TopoRing {
			t.Errorf("%v uniform: best topology %v, want ring", mode, uniform.BestUniform)
		}

		clustered := core.DefaultSystem(8)
		clustered.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
		cres, err := AutotunePlan(clustered, wl)
		if err != nil {
			t.Fatal(err)
		}
		if cres.BestUniform != hw.TopoFullyConnected {
			t.Errorf("%v clustered: best topology %v, want fully-connected", mode, cres.BestUniform)
		}
		if cres.UniformReport.Cycles <= uniform.UniformReport.Cycles {
			t.Errorf("%v: clustered best %g cycles not above uniform best %g",
				mode, cres.UniformReport.Cycles, uniform.UniformReport.Cycles)
		}
	}
}

// On a single chip every topology degenerates to no communication at
// all, so the frontier must agree across shapes.
func TestTopologySingleChipEquivalence(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	var first *core.Report
	for _, topo := range hw.Topologies() {
		sys := core.DefaultSystem(1)
		sys.HW.Topology = topo
		rep, err := core.Run(sys, wl)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.Cycles != first.Cycles || rep.C2CBytes != 0 {
			t.Errorf("%s on one chip: %.0f cycles / %d link bytes, want %.0f / 0",
				topo, rep.Cycles, rep.C2CBytes, first.Cycles)
		}
	}
}
