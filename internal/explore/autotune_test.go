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
// baselines, BestTopology and the frontiers spell a run topology, so
// the 16-candidate grid costs 16 evaluations (12 mixed tuples plus the
// 4 shared uniform points) and a following BestTopology on the same
// system costs none.
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
	before = evalpool.Evaluations()
	if _, _, err := BestTopology(base, wl); err != nil {
		t.Fatal(err)
	}
	if got := evalpool.Evaluations() - before; got != 0 {
		t.Errorf("BestTopology after AutotunePlan cost %d evaluations, want 0", got)
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
// backhaul that flips the 8-chip BestTopology from ring to
// fully-connected (the PR 3 finding), the tuned prefill classes flip
// with it.
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

// The frontier points must surface the per-sync C2C attribution the
// plan decisions rest on (the former omission left plan wins
// unattributable from frontier output alone).
func TestFrontierPointsCarryClassCycles(t *testing.T) {
	base := core.DefaultSystem(1)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	points, err := TopologyFrontier(base, wl, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if len(p.C2CCyclesByClass) != 2 {
			t.Fatalf("topology point %s/%d: %d classes, want 2", p.Topology, p.Chips, len(p.C2CCyclesByClass))
		}
		var sum float64
		for i, cc := range p.C2CCyclesByClass {
			if cc.Class != p.Report.ByClass[i].Class || cc.Topology != p.Topology {
				t.Errorf("%s/%d: class %v mismatched", p.Topology, p.Chips, cc)
			}
			sum += cc.C2CCycles
		}
		var chips float64
		for _, st := range p.Report.PerChip {
			chips += st.C2CCycles
		}
		if sum != chips {
			t.Errorf("%s/%d: class cycles %g != chip totals %g", p.Topology, p.Chips, sum, chips)
		}
	}
	nets, err := NetworkFrontier(base, wl, []int{8},
		[]hw.Network{hw.UniformNetwork(hw.MIPI())})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range nets {
		if len(p.C2CCyclesByClass) != 2 {
			t.Fatalf("network point %s/%d lacks class attribution", p.Topology, p.Chips)
		}
	}
}
