// Package hw defines the hardware parameter sets used across the
// simulator: the Siracusa-like MCU (compute cluster, memory hierarchy,
// DMA engines), the chip-to-chip network — a per-edge assignment of
// link classes (uniform MIPI by default, two-tier clustered and
// explicit per-edge tables for mixed MIPI/SPI boards) — and the energy
// constants of the paper's analytical model.
//
// All simulator and energy-model packages consume these parameters
// instead of hard-coding constants, so alternative platforms can be
// modeled by constructing a different Params value.
package hw

import (
	"errors"
	"fmt"
	"strings"
)

// Byte-size helpers.
const (
	KiB = 1024
	MiB = 1024 * KiB
)

// Chip describes a single Siracusa-like MCU: an octa-core RISC-V
// compute cluster with a two-level scratchpad hierarchy (L1 TCDM, L2)
// and off-chip L3 memory reached through an I/O DMA.
type Chip struct {
	// Cores is the number of RISC-V cores in the compute cluster.
	Cores int
	// FreqHz is the cluster clock frequency in Hz.
	FreqHz float64

	// MACsPerCorePerCycle is the peak int8 multiply-accumulate
	// throughput of one core (XpulpNN-class SIMD dot product).
	MACsPerCorePerCycle int

	// L1Bytes is the size of the tightly coupled L1 scratchpad.
	L1Bytes int
	// L1Banks is the number of interleaved L1 memory banks; the
	// logarithmic interconnect grants one 32-bit port per core.
	L1Banks int
	// L2Bytes is the size of the on-chip L2 scratchpad.
	L2Bytes int
	// L2ReserveBytes is L2 capacity reserved for the runtime: code,
	// stacks, I/O staging. It is unavailable to the deployment
	// planner.
	L2ReserveBytes int
	// L3Bytes is the size of the off-chip memory private to the chip.
	L3Bytes int

	// DMAL2L1BytesPerCycle is the cluster DMA bandwidth between L2
	// and L1 (64-bit AXI port at cluster frequency).
	DMAL2L1BytesPerCycle float64
	// DMAL2L1SetupCycles is the fixed cost of programming one cluster
	// DMA transfer.
	DMAL2L1SetupCycles int
	// DMAL3L2BytesPerCycle is the I/O DMA bandwidth between off-chip
	// L3 and L2.
	DMAL3L2BytesPerCycle float64
	// DMAL3L2SetupCycles is the fixed cost of one L3 burst.
	DMAL3L2SetupCycles int

	// KernelSetupCycles is the fixed software cost of launching one
	// kernel on the cluster (dispatch + barrier).
	KernelSetupCycles int
	// ClusterPowerW is the average active power of the compute
	// cluster. The Siracusa paper reports 13 mW average core power at
	// 500 MHz; the analytical model charges this power for every
	// cycle a chip is busy.
	ClusterPowerW float64
}

// Topology selects the interconnect shape of the chip-to-chip
// network. internal/interconnect turns a Topology into a link graph
// plus reduce/broadcast hop schedules; the performance simulator
// executes whatever schedule it is handed, so the network shape is a
// design variable of the platform rather than a property baked into
// the simulator.
type Topology int

const (
	// TopoTree is the paper's hierarchical reduction tree in groups
	// of GroupSize chips (Fig. 1). It is the zero value, so every
	// configuration that predates the topology axis keeps reproducing
	// the paper's numbers unchanged.
	TopoTree Topology = iota
	// TopoStar is the flat all-to-one reduction the paper rejects for
	// scalability: every chip sends its full partial straight to the
	// root, whose accumulations serialize. (Formerly only reachable
	// by setting GroupSize >= Chips.)
	TopoStar
	// TopoRing is the bandwidth-optimal ring all-reduce: 2(N-1) steps
	// moving payload/N chunks, with the root's residual work sharded
	// across all chips.
	TopoRing
	// TopoFullyConnected exchanges every partial pairwise: each chip
	// sends its full partial to every other chip and reduces locally.
	// Lowest schedule depth, N(N-1) times the reduce traffic, and no
	// broadcast phase.
	TopoFullyConnected

	topologyCount // sentinel for validation
)

// Topologies returns every supported interconnect shape, in enum
// order (the design-space exploration axis).
func Topologies() []Topology {
	return []Topology{TopoTree, TopoStar, TopoRing, TopoFullyConnected}
}

func (t Topology) String() string {
	switch t {
	case TopoTree:
		return "tree"
	case TopoStar:
		return "star"
	case TopoRing:
		return "ring"
	case TopoFullyConnected:
		return "fully-connected"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// Valid reports whether t names a supported topology.
func (t Topology) Valid() bool { return t >= 0 && t < topologyCount }

// ParseTopology maps a command-line spelling to a Topology. Accepted
// names: tree, star, ring, full | fully-connected | all-to-all.
func ParseTopology(s string) (Topology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tree", "hierarchical":
		return TopoTree, nil
	case "star", "flat", "all-to-one":
		return TopoStar, nil
	case "ring":
		return TopoRing, nil
	case "full", "fully-connected", "all-to-all", "fc":
		return TopoFullyConnected, nil
	default:
		return 0, fmt.Errorf("hw: unknown topology %q (want tree | star | ring | fully-connected)", s)
	}
}

// MarshalText emits the canonical spelling, so JSON/CSV sinks print
// "ring" instead of a bare int; FuzzParseTopology pins that it parses
// back.
func (t Topology) MarshalText() ([]byte, error) {
	if !t.Valid() {
		return nil, fmt.Errorf("hw: cannot marshal invalid topology %d", int(t))
	}
	return []byte(t.String()), nil
}

// UnmarshalText parses any spelling ParseTopology accepts, so
// "fully-connected" and the "fc" shorthand both round-trip.
func (t *Topology) UnmarshalText(text []byte) error {
	v, err := ParseTopology(string(text))
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// Energy holds the constants of the paper's analytical energy model.
type Energy struct {
	// L3PJPerByte is the energy of moving one byte between L3 and L2.
	L3PJPerByte float64
	// L2PJPerByte is the energy of moving one byte between L2 and L1.
	L2PJPerByte float64
}

// Params is the complete hardware description of the multi-chip system.
type Params struct {
	Chip Chip
	// Network assigns a LinkClass — bandwidth, setup cycles, pJ/B — to
	// every directed chip-to-chip edge. The uniform profile with the
	// MIPI class is the paper's network (and the Siracusa default);
	// clustered and per-edge-table profiles model mixed MIPI/SPI
	// boards. Network is a comparable value (explicit tables are
	// carried by content digest), so it participates in the evalpool
	// cache key like every other hardware parameter.
	Network Network
	Energy  Energy
	// GroupSize is the fan-in of the hierarchical all-reduce tree
	// (the paper uses groups of four chips). Only TopoTree and
	// TopoStar lower through the tree builder that consults it.
	GroupSize int
	// Topology selects the interconnect shape. The zero value is the
	// paper's hierarchical tree, so existing configurations are
	// unchanged. Params stays a comparable value type: the evalpool
	// report cache keys on it, so the topology participates in
	// memoization like every other hardware parameter.
	Topology Topology
	// Mem selects the off-chip memory model. The zero value is the
	// legacy flat byte-count accounting (pinned byte-identical by the
	// golden tests); MemDRAM prices streamed weights through
	// internal/memsim's tiled DRAM channel with prefetch depth and
	// SRAM bank contention.
	Mem MemHierarchy
}

// Siracusa returns the default parameter set modeling the system of the
// paper: Siracusa MCUs (8 RV32 cores at 500 MHz, 256 KiB L1, 2 MiB L2)
// joined by MIPI links (0.5 GB/s, 100 pJ/B), 100 pJ/B L3 and 2 pJ/B L2
// access energy, hierarchical reduction in groups of four.
func Siracusa() Params {
	return Params{
		Chip: Chip{
			Cores:                8,
			FreqHz:               500e6,
			MACsPerCorePerCycle:  8,
			L1Bytes:              256 * KiB,
			L1Banks:              16,
			L2Bytes:              2 * MiB,
			L2ReserveBytes:       448 * KiB,
			L3Bytes:              64 * MiB,
			DMAL2L1BytesPerCycle: 16,
			DMAL2L1SetupCycles:   16,
			DMAL3L2BytesPerCycle: 2.5,
			DMAL3L2SetupCycles:   64,
			KernelSetupCycles:    300,
			ClusterPowerW:        13e-3,
		},
		Network: UniformNetwork(MIPI()),
		Energy: Energy{
			L3PJPerByte: 100,
			L2PJPerByte: 2,
		},
		GroupSize: 4,
	}
}

// CyclesToSeconds converts cluster cycles to wall-clock seconds.
func (p Params) CyclesToSeconds(cycles float64) float64 {
	return cycles / p.Chip.FreqHz
}

// SecondsToCycles converts wall-clock seconds to cluster cycles.
func (p Params) SecondsToCycles(sec float64) float64 {
	return sec * p.Chip.FreqHz
}

// LinkBytesPerCycle is the local/uniform link class bandwidth
// expressed in payload bytes per cluster cycle. Per-edge consumers
// (the event simulator) resolve each edge's own class via LinkFor;
// this helper backs the closed-form estimates, which assume the
// uniform class.
func (p Params) LinkBytesPerCycle() float64 {
	return p.Network.Local.BytesPerCycle(p.Chip.FreqHz)
}

// LinkFor resolves the link class of the directed edge from->to under
// the platform's network description.
func (p Params) LinkFor(from, to int) (LinkClass, error) {
	return p.Network.LinkFor(from, to)
}

// UsableL2Bytes is the L2 capacity available to the deployment planner
// after the runtime reservation.
func (p Params) UsableL2Bytes() int {
	return p.Chip.L2Bytes - p.Chip.L2ReserveBytes
}

// PeakMACsPerCycle is the peak int8 MAC throughput of one chip.
func (p Params) PeakMACsPerCycle() int {
	return p.Chip.Cores * p.Chip.MACsPerCorePerCycle
}

// Validate reports the first structural problem with the parameter
// set, or nil if it is usable by the simulator.
func (p Params) Validate() error {
	c := p.Chip
	switch {
	case c.Cores <= 0:
		return errors.New("hw: chip must have at least one core")
	case c.FreqHz <= 0:
		return errors.New("hw: frequency must be positive")
	case c.MACsPerCorePerCycle <= 0:
		return errors.New("hw: MAC throughput must be positive")
	case c.L1Bytes <= 0 || c.L2Bytes <= 0 || c.L3Bytes <= 0:
		return errors.New("hw: memory sizes must be positive")
	case c.L2ReserveBytes < 0:
		return errors.New("hw: L2 reserve must be non-negative")
	case c.L2ReserveBytes >= c.L2Bytes:
		return fmt.Errorf("hw: L2 reserve %d consumes entire L2 %d", c.L2ReserveBytes, c.L2Bytes)
	case c.DMAL2L1BytesPerCycle <= 0 || c.DMAL3L2BytesPerCycle <= 0:
		return errors.New("hw: DMA bandwidths must be positive")
	case c.DMAL2L1SetupCycles < 0 || c.DMAL3L2SetupCycles < 0 || c.KernelSetupCycles < 0:
		return errors.New("hw: setup costs must be non-negative")
	case c.ClusterPowerW < 0:
		return errors.New("hw: cluster power must be non-negative")
	}
	if err := p.Network.Validate(); err != nil {
		return err
	}
	if p.Energy.L3PJPerByte < 0 || p.Energy.L2PJPerByte < 0 {
		return errors.New("hw: energy constants must be non-negative")
	}
	if !p.Topology.Valid() {
		return fmt.Errorf("hw: %s is not a supported topology", p.Topology)
	}
	// Only the tree-lowered shapes consult GroupSize; the ring and the
	// fully-connected exchange ignore it, so a zero or 1 group size
	// must not reject an otherwise valid ring platform.
	if (p.Topology == TopoTree || p.Topology == TopoStar) && p.GroupSize < 2 {
		return errors.New("hw: reduce group size must be at least 2 (select TopoStar for a flat all-to-one reduction)")
	}
	return p.Mem.Validate()
}
