package explore

import (
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// The autotuner at the 64-chip prompt point must rediscover the PR 2
// ablation finding: the ring takes every large-payload prefill
// collective, so both prefill classes tune to the ring and the best
// uniform topology is the ring itself.
func TestAutotunePlanPrompt64(t *testing.T) {
	base := core.DefaultSystem(64)
	wl := core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt}
	res, err := AutotunePlan(base, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 2 ||
		res.PerClass[0].Class != collective.PrefillMHSA ||
		res.PerClass[1].Class != collective.PrefillFFN {
		t.Fatalf("per-class winners = %v, want the two prefill classes", res.PerClass)
	}
	for _, cc := range res.PerClass {
		if cc.Topology != hw.TopoRing {
			t.Errorf("%s tuned to %s, want ring", cc.Class, cc.Topology)
		}
	}
	if res.BestUniform != hw.TopoRing {
		t.Errorf("best uniform = %s, want ring", res.BestUniform)
	}
	if res.Margin < 1 {
		t.Errorf("margin %g < 1: the winning plan lost to a uniform topology it had in its grid", res.Margin)
	}
	if res.Report.Cycles > res.UniformReport.Cycles {
		t.Errorf("plan cycles %g above uniform %g", res.Report.Cycles, res.UniformReport.Cycles)
	}
	// The winning plan binds exactly the active classes.
	if _, ok := res.Plan.Explicit(collective.DecodeMHSA); ok {
		t.Error("prompt autotune bound a decode class")
	}
}

// At the paper's 64-chip autoregressive operating point the tree keeps
// its win: decode classes tune to the tree.
func TestAutotunePlanDecode64(t *testing.T) {
	base := core.DefaultSystem(64)
	wl := core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Autoregressive}
	res, err := AutotunePlan(base, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 2 ||
		res.PerClass[0].Class != collective.DecodeMHSA ||
		res.PerClass[1].Class != collective.DecodeFFN {
		t.Fatalf("per-class winners = %v, want the two decode classes", res.PerClass)
	}
	for _, cc := range res.PerClass {
		if cc.Topology != hw.TopoTree {
			t.Errorf("%s tuned to %s, want tree", cc.Class, cc.Topology)
		}
	}
	if res.BestUniform != hw.TopoTree {
		t.Errorf("best uniform = %s, want tree", res.BestUniform)
	}
	if res.Margin < 1 {
		t.Errorf("margin %g < 1", res.Margin)
	}
}

// AutotunePlan spells its all-same tuples exactly as the uniform
// baselines and the plain sweeps spell a run topology, so the
// 16-candidate grid costs 16 evaluations (12 mixed tuples plus the 4
// shared uniform points) and evaluating the four run-topology points
// afterwards costs none.
func TestAutotunePlanSharesUniformPoints(t *testing.T) {
	base := core.DefaultSystem(64)
	wl := core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt}
	evalpool.ResetCache()
	before := evalpool.Evaluations()
	if _, err := AutotunePlan(base, wl); err != nil {
		t.Fatal(err)
	}
	if got := evalpool.Evaluations() - before; got != 16 {
		t.Errorf("AutotunePlan cost %d evaluations, want 16", got)
	}
	topos := hw.Topologies()
	points := make([]evalpool.Point, len(topos))
	for i, topo := range topos {
		sys := base
		sys.HW.Topology = topo
		points[i] = evalpool.Point{System: sys, Workload: wl}
	}
	before = evalpool.Evaluations()
	if _, err := evalpool.Map(points); err != nil {
		t.Fatal(err)
	}
	if got := evalpool.Evaluations() - before; got != 0 {
		t.Errorf("run-topology points after AutotunePlan cost %d evaluations, want 0", got)
	}
}

// The pipeline strategy has no collective synchronizations to plan.
func TestAutotunePlanPipelineRejected(t *testing.T) {
	base := core.DefaultSystem(8)
	base.Strategy = partition.Pipeline
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	if _, err := AutotunePlan(base, wl); err == nil {
		t.Fatal("pipeline autotune accepted")
	}
}

// The autotuner must honor the base network: under the clustered
// backhaul that flips the 8-chip best uniform topology from ring to
// fully-connected (TestBestTopologyAwareOfBackhaul), the tuned prefill
// classes flip with it.
func TestAutotunePlanSeesNetwork(t *testing.T) {
	base := core.DefaultSystem(8)
	base.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	res, err := AutotunePlan(base, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestUniform != hw.TopoFullyConnected {
		t.Errorf("clustered 8-chip best uniform = %s, want fully-connected", res.BestUniform)
	}
	for _, cc := range res.PerClass {
		if cc.Topology != hw.TopoFullyConnected {
			t.Errorf("%s tuned to %s under the backhaul, want fully-connected", cc.Class, cc.Topology)
		}
	}
}

// Frontier points must surface the per-sync C2C attribution the plan
// decisions rest on: each report's ByClass names the active classes on
// the run topology and sums to the per-chip link time.
func TestFrontierPointsCarryClassCycles(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	for _, topo := range hw.Topologies() {
		base := core.DefaultSystem(1)
		base.HW.Topology = topo
		points, err := Frontier(base, wl, []int{2, 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			if len(p.Report.ByClass) != 2 {
				t.Fatalf("%s/%d: %d classes, want 2", topo, p.Chips, len(p.Report.ByClass))
			}
			var sum float64
			for _, cs := range p.Report.ByClass {
				if cs.Topology != topo {
					t.Errorf("%s/%d: class %s ran on %s", topo, p.Chips, cs.Class, cs.Topology)
				}
				sum += cs.C2CCycles
			}
			var chips float64
			for _, st := range p.Report.PerChip {
				chips += st.C2CCycles
			}
			if sum != chips {
				t.Errorf("%s/%d: class cycles %g != chip totals %g", topo, p.Chips, sum, chips)
			}
		}
	}
}
