package energy

import (
	"math"
	"strings"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
)

func simulate(t *testing.T, cfg model.Config, n int, mode model.Mode, s int) *perfsim.Result {
	t.Helper()
	p, err := partition.NewTensorParallel(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(p, hw.Siracusa(), mode, s, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfsim.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEnergyComponentsManual(t *testing.T) {
	p := hw.Siracusa()
	res := &perfsim.Result{
		TotalCycles: 500e6, // one second
		PerChip: []perfsim.ChipStats{{
			ComputeCycles: 500e6,
			L3Bytes:       1e6,
			L2L1Bytes:     1e6,
			C2CSentBytes:  1e6,
		}},
	}
	rep := FromResult(p, res)
	if math.Abs(rep.Compute-13e-3) > 1e-9 {
		t.Errorf("compute = %g, want 13 mJ (13 mW × 1 s)", rep.Compute)
	}
	if math.Abs(rep.L3-1e-4) > 1e-12 {
		t.Errorf("L3 = %g, want 100 µJ (1 MB × 100 pJ/B)", rep.L3)
	}
	if math.Abs(rep.L2-2e-6) > 1e-12 {
		t.Errorf("L2 = %g, want 2 µJ (1 MB × 2 pJ/B)", rep.L2)
	}
	if math.Abs(rep.C2C-1e-4) > 1e-12 {
		t.Errorf("C2C = %g, want 100 µJ", rep.C2C)
	}
	if math.Abs(rep.Total()-(rep.Compute+rep.L3+rep.L2+rep.C2C)) > 1e-15 {
		t.Error("total is not the component sum")
	}
}

// Chip-to-chip energy is billed per link class: bytes over a
// 150 pJ/B backhaul cost 1.5x the bytes over the 100 pJ/B local
// class, and the per-class path must agree with the uniform fallback
// when there is only one class.
func TestC2CEnergyPerClass(t *testing.T) {
	p := hw.Siracusa()
	local := hw.MIPI()
	backhaul := hw.LinkClass{BandwidthBytesPerSec: 50e6, SetupCycles: 512, EnergyPJPerByte: 150}
	res := &perfsim.Result{
		LinkClasses: []hw.LinkClass{local, backhaul},
		PerChip: []perfsim.ChipStats{{
			C2CSentBytes:        3e6,
			C2CSentBytesByClass: []int64{1e6, 2e6},
		}},
	}
	rep := FromResult(p, res)
	want := (1e6*100 + 2e6*150) * 1e-12
	if math.Abs(rep.C2C-want) > 1e-15 {
		t.Errorf("per-class C2C = %g, want %g", rep.C2C, want)
	}

	// Without per-class counters the model falls back to charging the
	// local class for every byte (the pre-refactor accounting).
	legacy := &perfsim.Result{
		PerChip: []perfsim.ChipStats{{C2CSentBytes: 3e6}},
	}
	if got := FromResult(p, legacy).C2C; math.Abs(got-3e6*100*1e-12) > 1e-15 {
		t.Errorf("fallback C2C = %g, want %g", got, 3e6*100*1e-12)
	}
}

func TestTinyLlamaEnergySimilarAtFitBoundary(t *testing.T) {
	// Paper: 8 chips run at similar energy per inference to 1 chip
	// (the L3 traffic is unchanged; compute energy splits).
	cfg := model.TinyLlama42M()
	p := hw.Siracusa()
	e1 := FromResult(p, simulate(t, cfg, 1, model.Autoregressive, 128)).Total()
	e8 := FromResult(p, simulate(t, cfg, 8, model.Autoregressive, 128)).Total()
	ratio := e8 / e1
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("8-chip/1-chip energy ratio %g, want similar (paper: ~0.96)", ratio)
	}
}

func TestEDPImprovementSuperLinear(t *testing.T) {
	// Paper headline: 27.2× EDP improvement at 8 chips.
	cfg := model.TinyLlama42M()
	p := hw.Siracusa()
	edp := func(res *perfsim.Result) float64 {
		return FromResult(p, res).Total() * p.CyclesToSeconds(res.TotalCycles)
	}
	edp1 := edp(simulate(t, cfg, 1, model.Autoregressive, 128))
	edp8 := edp(simulate(t, cfg, 8, model.Autoregressive, 128))
	improvement := edp1 / edp8
	if improvement < 15 {
		t.Fatalf("EDP improvement %g too low (paper: 27.2)", improvement)
	}
	if improvement > 60 {
		t.Fatalf("EDP improvement %g implausibly high (paper: 27.2)", improvement)
	}
}

func TestResidentAllSlashesEnergy(t *testing.T) {
	// Scaled model at 32+ chips: no L3 traffic at all, so energy
	// drops (the paper reports 1.3×; our byte-accurate L3 accounting
	// makes the drop larger — see EXPERIMENTS.md).
	cfg := model.TinyLlamaScaled64()
	p := hw.Siracusa()
	e16 := FromResult(p, simulate(t, cfg, 16, model.Autoregressive, 128))
	e32 := FromResult(p, simulate(t, cfg, 32, model.Autoregressive, 128))
	if e32.L3 != 0 {
		t.Fatalf("32-chip L3 energy %g, want 0", e32.L3)
	}
	if e32.Total() >= e16.Total() {
		t.Fatalf("32-chip energy %g not below 16-chip %g", e32.Total(), e16.Total())
	}
}

func TestEnergyScalesWithPower(t *testing.T) {
	cfg := model.TinyLlama42M()
	res := simulate(t, cfg, 8, model.Autoregressive, 128)
	p := hw.Siracusa()
	base := FromResult(p, res)
	p.Chip.ClusterPowerW *= 2
	doubled := FromResult(p, res)
	if math.Abs(doubled.Compute-2*base.Compute) > 1e-12 {
		t.Fatal("compute energy did not scale with power")
	}
	if doubled.L3 != base.L3 {
		t.Fatal("L3 energy changed with cluster power")
	}
}

func TestC2CEnergyOnlyWhenDistributed(t *testing.T) {
	cfg := model.TinyLlama42M()
	p := hw.Siracusa()
	if c := FromResult(p, simulate(t, cfg, 1, model.Autoregressive, 128)).C2C; c != 0 {
		t.Fatalf("single chip C2C energy %g", c)
	}
	if c := FromResult(p, simulate(t, cfg, 8, model.Autoregressive, 128)).C2C; c <= 0 {
		t.Fatal("8-chip C2C energy missing")
	}
}

func TestIdleAwareAccounting(t *testing.T) {
	cfg := model.TinyLlama42M()
	p := hw.Siracusa()
	res8 := simulate(t, cfg, 8, model.Autoregressive, 128)
	paper := FromResult(p, res8)
	idle := FromResultIdleAware(p, res8)
	// Idle-aware charges 8 chips for the full wall clock: strictly
	// more compute energy than the busy-time-only formula.
	if idle.Compute <= paper.Compute {
		t.Fatalf("idle-aware compute %g not above busy-only %g", idle.Compute, paper.Compute)
	}
	// Non-compute terms unchanged.
	if idle.L3 != paper.L3 || idle.C2C != paper.C2C || idle.L2 != paper.L2 {
		t.Fatal("idle-aware accounting changed memory/link terms")
	}
	// Exact value: 8 chips × 13 mW × wall seconds.
	want := 8 * p.Chip.ClusterPowerW * p.CyclesToSeconds(res8.TotalCycles)
	if math.Abs(idle.Compute-want) > 1e-12 {
		t.Fatalf("idle compute %g, want %g", idle.Compute, want)
	}
	// Even under the harsher accounting, the 8-chip system stays
	// energy-competitive with 1 chip for TinyLlama AR (the wall
	// clock shrinks 32×).
	res1 := simulate(t, cfg, 1, model.Autoregressive, 128)
	e1 := FromResultIdleAware(p, res1).Total()
	e8 := idle.Total()
	if e8 > 1.2*e1 {
		t.Fatalf("idle-aware 8-chip energy %g far above 1-chip %g", e8, e1)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Compute: 1e-3, L3: 2e-3, L2: 3e-3, C2C: 4e-3}
	s := r.String()
	if !strings.Contains(s, "total=10.0000 mJ") {
		t.Fatalf("report string %q missing total", s)
	}
}
