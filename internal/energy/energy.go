// Package energy implements the paper's analytical energy model:
//
//	E_Total = N_C2C·E_C2C + Σ_chips ( P·T_Comp,j
//	        + N_L3↔L2,j·E_L3↔L2 + N_L2↔L1,j·E_L2↔L1 )
//
// with the paper's constants: 100 pJ/B for the MIPI link and for L3
// accesses, 2 pJ/B for L2 accesses, and 13 mW average cluster power at
// 500 MHz. Inputs are the byte counters and busy times measured by the
// performance simulator.
package energy

import (
	"fmt"

	"mcudist/internal/collective"
	"mcudist/internal/hw"
	"mcudist/internal/perfsim"
)

// Report itemizes the energy of one forward pass, in joules.
type Report struct {
	// Compute is Σ P·T_comp over chips.
	Compute float64
	// L3 is off-chip memory transfer energy.
	L3 float64
	// L2 is on-chip L2↔L1 transfer energy.
	L2 float64
	// C2C is chip-to-chip link energy.
	C2C float64
}

// Total returns the summed energy in joules.
func (r Report) Total() float64 { return r.Compute + r.L3 + r.L2 + r.C2C }

// String formats the report in millijoules.
func (r Report) String() string {
	return fmt.Sprintf("compute=%.4f mJ L3=%.4f mJ L2=%.4f mJ C2C=%.4f mJ total=%.4f mJ",
		r.Compute*1e3, r.L3*1e3, r.L2*1e3, r.C2C*1e3, r.Total()*1e3)
}

const pJ = 1e-12

// FromResult evaluates the analytical model over a simulation result.
// Chip-to-chip energy is charged per link class: each byte pays the
// pJ/B of the edge class it actually crossed (a slow SPI backhaul and
// a fast MIPI local link bill differently), using the per-class byte
// counters the simulator splits out. Results without per-class
// counters (hand-built in tests, or from older traces) fall back to
// the network's local class for every byte — exactly the pre-refactor
// uniform accounting.
func FromResult(p hw.Params, res *perfsim.Result) Report {
	// Under the hierarchical memory model, off-chip bytes cross the
	// DRAM channel and pay its pJ/B; the flat model keeps the paper's
	// L3 constant.
	l3pj := p.Energy.L3PJPerByte
	if p.Mem.Enabled() {
		l3pj = p.Mem.DRAMPJPerByte
	}
	var rep Report
	for _, st := range res.PerChip {
		rep.Compute += p.Chip.ClusterPowerW * p.CyclesToSeconds(st.ComputeCycles)
		rep.L3 += float64(st.L3Bytes) * l3pj * pJ
		rep.L2 += float64(st.L2L1Bytes) * p.Energy.L2PJPerByte * pJ
		if len(st.C2CSentBytesByClass) > 0 {
			for i, b := range st.C2CSentBytesByClass {
				rep.C2C += float64(b) * res.LinkClasses[i].EnergyPJPerByte * pJ
			}
		} else {
			rep.C2C += float64(st.C2CSentBytes) * p.Network.Local.EnergyPJPerByte * pJ
		}
	}
	return rep
}

// ClassEnergy is the chip-to-chip link energy of one synchronization
// class.
type ClassEnergy struct {
	Class collective.SyncClass
	// Topology is the schedule shape the class executed.
	Topology hw.Topology
	// C2CJoules is the class's link energy, each byte billed at the
	// pJ/B of the link class it crossed.
	C2CJoules float64
}

// C2CByClass splits the C2C term of the analytical model per
// synchronization class — the attribution a per-sync collective plan
// is judged on. The classes sum to FromResult's C2C term for the
// collective strategies (the pipeline's handoff chain belongs to no
// synchronization and is excluded), up to float summation order.
// Results without per-link counters fall back to the network's local
// class for every byte, mirroring FromResult.
func C2CByClass(p hw.Params, res *perfsim.Result) []ClassEnergy {
	out := make([]ClassEnergy, 0, len(res.ByClass))
	for _, cs := range res.ByClass {
		e := ClassEnergy{Class: cs.Class, Topology: cs.Topology}
		if len(cs.C2CSentBytesByLink) > 0 {
			for i, b := range cs.C2CSentBytesByLink {
				e.C2CJoules += float64(b) * res.LinkClasses[i].EnergyPJPerByte * pJ
			}
		} else {
			e.C2CJoules = float64(cs.C2CSentBytes) * p.Network.Local.EnergyPJPerByte * pJ
		}
		out = append(out, e)
	}
	return out
}

// FromResultIdleAware evaluates the model with every chip powered for
// the whole inference (P × T_total per chip) instead of the paper's
// compute-time-only term — the accounting that penalizes
// parallelization when chips wait on each other.
func FromResultIdleAware(p hw.Params, res *perfsim.Result) Report {
	rep := FromResult(p, res)
	rep.Compute = 0
	wall := p.CyclesToSeconds(res.TotalCycles)
	for range res.PerChip {
		rep.Compute += p.Chip.ClusterPowerW * wall
	}
	return rep
}
