package perfsim

import (
	"math"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/kernels"
	"mcudist/internal/memsim"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

func dramParams() hw.Params {
	p := hw.Siracusa()
	p.Mem = hw.LPDDR5()
	return p
}

// tiledSim builds a one-chip arena ready for execTiled calls.
func tiledSim() *Sim {
	s := NewSim()
	s.chipFree = growFloats(s.chipFree, 3)
	s.cluster = s.chipFree[:1]
	s.dma = s.chipFree[1:2]
	s.io = s.chipFree[2:3]
	s.stats = make([]ChipStats, 1)
	s.memEnabled = true
	return s
}

// TestExecTiledMatchesPlanMakespan pins the identity the autotuner
// depends on: replaying a tile plan on the device timelines takes
// exactly the closed-form makespan, at any start time, and the
// per-chip buckets sum exactly to the elapsed time.
func TestExecTiledMatchesPlanMakespan(t *testing.T) {
	hwp := dramParams()
	ch := memsim.ChannelOf(hwp)
	e := kernels.Elem{Weight: 1, Act: 1, Acc: 4, Reduce: 1}
	cost := kernels.Linear(hwp, 16, 2048, 5632, e)
	g, ok := memsim.GEMMOf(cost)
	if !ok {
		t.Fatal("Linear must yield a GEMM")
	}
	for _, tl := range []memsim.Tiling{{}, {K: 256, N: 128}, {K: 2048, N: 32}} {
		for _, start := range []float64{0, 12345.5} {
			plan, err := memsim.PlanGEMM(ch, g, tl)
			if err != nil {
				t.Fatal(err)
			}
			s := tiledSim()
			end := s.execTiled(0, start, &cost, plan)
			if got, want := end-start, plan.Makespan(); got != want {
				t.Errorf("tiling %s start %g: elapsed %g != makespan %g", tl, start, got, want)
			}
			st := s.stats[0]
			sum := st.ComputeCycles + st.L2L1Cycles + st.L3Cycles
			if math.Abs(sum-(end-start)) > 1e-6 {
				t.Errorf("tiling %s: buckets %g != elapsed %g", tl, sum, end-start)
			}
			if st.L3Bytes != plan.WeightBytes {
				t.Errorf("tiling %s: off-chip bytes %d, want %d", tl, st.L3Bytes, plan.WeightBytes)
			}
		}
	}
}

// TestExecTiledBackToBack pins that a second GEMM right after a first
// one still reproduces its own makespan: the shared io/dma/cluster
// resources never delay the explicit-ready chain.
func TestExecTiledBackToBack(t *testing.T) {
	hwp := dramParams()
	ch := memsim.ChannelOf(hwp)
	e := kernels.Elem{Weight: 1, Act: 1, Acc: 4, Reduce: 1}
	a := kernels.Linear(hwp, 16, 2048, 512, e)
	b := kernels.Linear(hwp, 16, 512, 2048, e)
	ga, _ := memsim.GEMMOf(a)
	gb, _ := memsim.GEMMOf(b)
	pa, err := memsim.PlanGEMM(ch, ga, memsim.Tiling{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := memsim.PlanGEMM(ch, gb, memsim.Tiling{K: 128, N: 256})
	if err != nil {
		t.Fatal(err)
	}
	s := tiledSim()
	mid := s.execTiled(0, 0, &a, pa)
	end := s.execTiled(0, mid, &b, pb)
	if got, want := mid, pa.Makespan(); got != want {
		t.Fatalf("first GEMM elapsed %g != makespan %g", got, want)
	}
	if got, want := end-mid, pb.Makespan(); got != want {
		t.Fatalf("second GEMM elapsed %g != makespan %g", got, want)
	}
}

// TestDRAMHierarchyEndToEnd runs a streamed-tier deployment under the
// hierarchical memory model: the run must succeed, move off-chip
// bytes, keep the breakdown summing to the total, and price off-chip
// time differently from the flat model.
func TestDRAMHierarchyEndToEnd(t *testing.T) {
	cfg := model.TinyLlama42M()
	s := model.PaperSeqLen(cfg, model.Autoregressive)
	plan, err := partition.NewTensorParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}

	flatDep, err := deploy.New(plan, hw.Siracusa(), model.Autoregressive, s, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if flatDep.WorstTier() != deploy.TierStreamed {
		t.Fatalf("fixture must be streamed, got %v", flatDep.WorstTier())
	}
	flat, err := Run(flatDep)
	if err != nil {
		t.Fatal(err)
	}

	dramDep, err := deploy.New(plan, dramParams(), model.Autoregressive, s, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cd := range dramDep.Chips {
		if cd.MHSAStream == nil || cd.FCStream == nil {
			t.Fatalf("chip %d: streamed DRAM deployment must carry tile plans", cd.Chip)
		}
	}
	dram, err := Run(dramDep)
	if err != nil {
		t.Fatal(err)
	}

	if dram.TotalCycles <= 0 {
		t.Fatal("DRAM run has no runtime")
	}
	if got := dram.Breakdown.Total(); math.Abs(got-dram.TotalCycles) > 1e-6*dram.TotalCycles {
		t.Fatalf("breakdown %g != total %g", got, dram.TotalCycles)
	}
	if dram.TotalCycles == flat.TotalCycles {
		t.Fatal("DRAM hierarchy priced identically to the flat model")
	}
	// Both models move the same weight bytes off-chip; the hierarchy
	// additionally re-reads activations per column pass, so its
	// off-chip byte count can only grow.
	var flatBytes, dramBytes int64
	for i := range flat.PerChip {
		flatBytes += flat.PerChip[i].L3Bytes
		dramBytes += dram.PerChip[i].L3Bytes
	}
	if flatBytes <= 0 || dramBytes <= 0 {
		t.Fatalf("streamed runs must move off-chip bytes (flat %d, dram %d)", flatBytes, dramBytes)
	}
	t.Logf("flat: %.0f cycles / %d L3 bytes; dram: %.0f cycles / %d L3 bytes",
		flat.TotalCycles, flatBytes, dram.TotalCycles, dramBytes)
}

// TestDRAMDepthSaturates pins the prefetch-depth knob's end-to-end
// behavior: deeper prefetch never hurts, and for the planner's
// uniform tile streams it saturates at depth 1 (double buffering) —
// with slots = depth+1 >= 2, either the fetch chain or the work chain
// dominates every step of the makespan recurrence outright, so extra
// buffer slots have nothing left to hide. The knob exists for bursty
// tile schedules; uniform streams are the regime the planner emits.
func TestDRAMDepthSaturates(t *testing.T) {
	cfg := model.TinyLlama42M()
	s := model.PaperSeqLen(cfg, model.Autoregressive)
	plan, err := partition.NewTensorParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var base float64
	for i, depth := range []int{1, 2, 4} {
		hwp := dramParams()
		hwp.Mem.PrefetchDepth = depth
		d, err := deploy.New(plan, hwp, model.Autoregressive, s, deploy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res.TotalCycles
		} else if res.TotalCycles != base {
			t.Fatalf("depth %d: %.0f cycles, want the depth-1 saturation value %.0f", depth, res.TotalCycles, base)
		}
	}
}
