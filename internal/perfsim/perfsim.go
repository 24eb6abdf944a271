// Package perfsim executes a lowered deployment on per-device
// timelines and reports what the paper extracts from GVSoC, the
// event-driven platform simulator it uses: total runtime in cycles,
// the runtime breakdown (computation, chip-to-chip link, L3↔L2 DMA,
// L2↔L1 DMA), and per-chip byte counters for the energy model.
//
// Every contended device — a chip's compute cluster, its L2↔L1 DMA
// engine, its off-chip I/O engine, and each directed chip-to-chip link
// — is an exclusive resource that serializes its users in FIFO order.
// The simulator issues every usage in dependency order with an
// explicit ready time, so a device needs no event queue: its whole
// state is the time it next falls free (see use). Time is measured in
// cluster cycles as a float64 so that fractional bandwidth quotients
// (e.g. 0.5 bytes/cycle) accumulate exactly.
//
// Modeling conventions (matching the paper's stacked-bar accounting):
// compute, L2↔L1 tile movement, and exposed L3 streaming serialize
// within a phase. Collective hops come from interconnect.Schedules —
// the simulator executes whatever hop lists the selected topologies
// lowered to, holding no structural knowledge of its own. Each
// synchronization carries a collective.SyncClass (prefill vs decode,
// MHSA vs FFN, the replicated exchanges), and a per-sync collective
// plan (deploy.Options.SyncPlan) may bind classes to different
// topologies: every bound shape is lowered once up front, and each
// sync executes its own class's schedule, with the synchronization
// count and link accounting split per class. Every (from, to) chip pair used by a schedule is an
// independent full-duplex link (the Fig. 1 hub wiring generalized)
// driven at its own edge's link class — bandwidth, setup, pJ/B —
// resolved from the platform's network description, so mixed MIPI/SPI
// boards and clustered backhauls simulate natively; partials
// converging on a chip arrive concurrently while that chip's
// accumulations serialize on its cluster.
// Collective payloads move in tiles, letting the broadcast of early
// tiles overlap the reduction of later ones.
//
// The simulator is allocation-free on its hot path: all per-run
// scratch state lives in a reusable Sim arena recycled through a
// sync.Pool, and only the returned Result (copied out of the arena) is
// freshly allocated per run.
package perfsim

import (
	"fmt"
	"sync"

	"mcudist/internal/collective"
	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/kernels"
	"mcudist/internal/memsim"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/trace"
)

// ChipStats accumulates one chip's activity.
type ChipStats struct {
	// Cycle buckets (busy time by cause).
	ComputeCycles float64
	L3Cycles      float64
	L2L1Cycles    float64
	C2CCycles     float64
	// Byte counters for the energy model.
	L3Bytes      int64 // all off-chip traffic (weights + spill)
	L3SpillBytes int64 // activation-spill share of L3Bytes
	L2L1Bytes    int64
	C2CSentBytes int64
	// C2CCyclesByClass / C2CSentBytesByClass split the chip-to-chip
	// totals per link class, indexed like Result.LinkClasses — the
	// axis heterogeneous networks (fast local links, slow backhaul)
	// are analyzed and billed on. A uniform network has exactly one
	// class, so index 0 equals the totals.
	C2CCyclesByClass    []float64
	C2CSentBytesByClass []int64
	// End is the chip's final timestamp.
	End float64
}

// Breakdown attributes total runtime to the paper's four categories,
// measured on the root chip's timeline (waits for remote partials are
// chip-to-chip time).
type Breakdown struct {
	Compute float64
	L2L1    float64
	L3      float64
	C2C     float64
}

// Total returns the summed breakdown, equal to the runtime.
func (b Breakdown) Total() float64 { return b.Compute + b.L2L1 + b.L3 + b.C2C }

// ClassStats aggregates the whole system's collective activity of one
// synchronization class — the axis a per-sync collective plan is
// chosen and judged on. C2CCycles is link busy time summed across
// chips (the per-class share of the ChipStats.C2CCycles totals), not
// the root-timeline chip-to-chip share of Breakdown.
type ClassStats struct {
	// Class is the synchronization class these counters cover.
	Class collective.SyncClass
	// Topology is the schedule shape the class's synchronizations
	// executed: the plan's binding, or the run topology.
	Topology hw.Topology
	// Syncs counts the synchronizations of this class.
	Syncs int
	// C2CCycles / C2CSentBytes total the class's link activity across
	// chips.
	C2CCycles    float64
	C2CSentBytes int64
	// C2CSentBytesByLink splits the class's bytes per link class,
	// indexed like Result.LinkClasses — what the energy model bills
	// each edge's own pJ/B on.
	C2CSentBytesByLink []int64
}

// Result is the outcome of one simulated forward pass.
type Result struct {
	TotalCycles float64
	Breakdown   Breakdown
	PerChip     []ChipStats
	// Syncs is the number of chip synchronizations executed (the
	// paper's scheme: 2 per block).
	Syncs int
	// ByClass splits the synchronization and link accounting per
	// synchronization class, in class order, covering only classes
	// that executed at least once. Pipeline handoffs are point-to-point
	// transfers outside any collective and appear in no class.
	ByClass []ClassStats
	// TreeDepth is the serialized hop depth of the RUN topology's
	// reduce schedule (the tree's depth; 1 for star and
	// fully-connected, N-1 for the ring). A per-sync plan's rebound
	// classes execute their own schedules — see ByClass for the
	// shapes that actually ran.
	TreeDepth int
	// Topology is the run topology (HW.Topology); classes rebound by
	// a per-sync plan report their own shape in ByClass.
	Topology hw.Topology
	// LinkClasses lists the distinct link classes the run's transfers
	// crossed, in first-use order; the per-class counters in ChipStats
	// are indexed against it. The energy model charges each class's
	// own pJ/B.
	LinkClasses []hw.LinkClass
	// TotalC2CBytes is the summed link traffic.
	TotalC2CBytes int64
}

// classNone marks link transfers outside any collective
// synchronization (pipeline handoffs).
const classNone = collective.SyncClass(-1)

// classAccum accumulates one synchronization class's activity while
// the simulation runs.
type classAccum struct {
	topology hw.Topology
	syncs    int
	cycles   float64
	bytes    int64
	// byLink is indexed like Sim.classes (carved full-width from the
	// arena once the class axis is final).
	byLink []int64
}

// Sim is a reusable simulation arena: one Sim owns every piece of
// per-run scratch state — the chip and link timelines, the per-(chip,
// chunk) readiness matrices, the per-chip and per-class accumulators,
// the tile buffers — and recycles all of it across runs, so repeated
// simulations (sweeps, autotuning probes, fleet step pricing) allocate
// only their Results. The package-level Run/RunTraced draw Sims from
// an internal sync.Pool; construct one with NewSim to pin an arena to
// a caller instead.
//
// A Sim is not safe for concurrent use. Results it returns are copied
// out of the arena into fresh exact-size allocations, so they stay
// valid (and immutable-shareable, as evalpool requires) across later
// runs of the same Sim.
type Sim struct {
	d *deploy.Deployment
	// sched is the run topology's schedule. lows holds it (always at
	// index 0) plus one lowered schedule per topology the collective
	// plan binds, each with its hops' price slots resolved once at
	// setup, so the per-sync hop loops index the tile's price table
	// directly; scheds maps a bound topology to its index in lows.
	sched  *interconnect.Schedule
	lows   []loweredSched
	scheds map[hw.Topology]int32
	// curClass is the synchronization class currently executing
	// (classNone outside collectives), the axis hopOn attributes link
	// activity to.
	curClass collective.SyncClass
	classAcc [collective.NumSyncClasses]classAccum
	// chipFree densely backs the free-at times of the per-chip
	// exclusive devices; cluster, dma, and io are its thirds. linkFree
	// holds one full-duplex link's free-at time per directed chip pair,
	// indexed from*n+to.
	chipFree []float64
	cluster  []float64
	dma      []float64
	io       []float64
	linkFree []float64
	n        int
	// classes/classID intern the distinct link classes transfers
	// cross (schedule classes first, pipeline-chain classes in chain
	// order), defining the per-class accounting axis. The axis is
	// complete before the simulation starts: every schedule lists its
	// hops' classes and the pipeline chain is resolved up front.
	classes []hw.LinkClass
	classID map[hw.LinkClass]int
	// pipeHops is the routed pipeline handoff chain (pipeline strategy
	// only), flattened in chain order with interned class ids; the
	// stage boundary c -> c+1 spans pipeHops[pipeOff[c]:pipeOff[c+1]].
	// On a fully wired network every boundary is the single direct hop
	// the simulator always took; on sparse or degraded wirings a
	// boundary routes multi-hop through surviving chips.
	pipeHops []pipeHop
	pipeOff  []int32
	stats    []ChipStats
	// chipClassCycles/chipClassBytes back the per-chip per-class
	// counters (n × len(classes), carved into stats[i]); accByLink
	// backs the per-class byLink accumulators the same way.
	chipClassCycles []float64
	chipClassBytes  []int64
	accByLink       []int64
	syncs           int
	commTile        int64
	tl              *trace.Timeline
	// sync/strategy scratch: flat per-(chip, chunk) readiness
	// matrices, ping-pong arrival buffers (alternating so a caller's
	// previous arrival slice stays valid while the next sync reads
	// it), phase timelines, and payload tile buffers.
	partial  []float64
	has      []float64
	syncA    []float64
	syncB    []float64
	flip     bool
	phaseBuf []float64
	tiles    []int64
	bcast    []int64
	// A sync's prices, computed once and replayed on every hop:
	// hopPrices holds one tile's transfers per price slot of the
	// executing schedule, addPrices the reduce-add per distinct
	// fraction, rootPrices the root work per distinct fraction (one
	// row of len(rootWork) each).
	hopPrices  []hopPrice
	addPrices  []pricedCost
	rootPrices []pricedCost

	// Hardware scalars the per-kernel and per-hop paths read on every
	// call, cached flat at setup so the hot path never copies the
	// platform struct.
	freqHz     float64
	dmaL2BPC   float64
	dmaL2Setup int
	dmaL3BPC   float64
	dmaL3Setup int
	l1Tile     int64
	strChip    int
	strFactor  float64
	degChip    int
	degFactor  float64

	// Hierarchical memory model state: when the platform enables it,
	// off-chip transfers are priced on the DRAM channel (memCh) and
	// streamed GEMMs execute tile-by-tile (execTiled) over the
	// tileRing scratch that tracks stream-buffer slot drain times.
	memEnabled bool
	memCh      memsim.Channel
	tileRing   []float64
}

// loweredSched is one schedule bound for this run, with its hops
// keyed for pricing once at setup. A hop's price depends only on its
// fraction, its link class and the tile's payload, so a hop's price
// slot is its fraction's index in fracs times len(classes) plus its
// class index in the schedule: one sync prices each slot once per
// tile instead of once per hop.
type loweredSched struct {
	sc      *interconnect.Schedule
	classes []int32   // run-local class id per sc.Classes entry
	fracs   []float64 // distinct fractions of the hops and Finals
	reduce  []int32   // price slot per sc.Reduce hop
	bcast   []int32   // price slot per sc.Broadcast hop
	final   []int32   // fraction index per sc.Final entry
}

// fracID returns f's index in fracs, appending it when new.
func (lo *loweredSched) fracID(f float64) int32 {
	for i, g := range lo.fracs {
		if g == f {
			return int32(i)
		}
	}
	lo.fracs = append(lo.fracs, f)
	return int32(len(lo.fracs) - 1)
}

// appendSlots appends each hop's price slot to slots.
func (lo *loweredSched) appendSlots(slots []int32, hops []interconnect.Hop) []int32 {
	nc := int32(len(lo.classes))
	for i := range hops {
		slots = append(slots, lo.fracID(hops[i].Frac)*nc+int32(hops[i].ClassIdx))
	}
	return slots
}

// hopPrice is one price slot's transfer for the current tile: the
// payload a reduce or broadcast hop moves and its nominal link time,
// plus the slot's run-local class id and fraction index.
type hopPrice struct {
	reduce, bcast       int64
	reduceDur, bcastDur float64
	class, frac         int32
}

// pricedCost is a kernel cost as a chip executes it: the L2↔L1 bytes
// and DMA time and the compute cycles, before any straggler slowdown.
type pricedCost struct {
	name   string
	bytes  int64
	dmaT   float64
	cycles float64
}

// pipeHop is one lowered hop of the routed pipeline handoff chain: a
// directed edge with its interned accounting-class id.
type pipeHop struct {
	from, to int32
	class    int32
}

// NewSim returns an empty arena. The zero Sim is ready to use; every
// run sizes the scratch to its deployment.
func NewSim() *Sim { return &Sim{} }

// simPool recycles arenas across the package-level entry points:
// concurrent evaluations (the evalpool workers) each borrow a Sim for
// the duration of one run.
var simPool = sync.Pool{New: func() any { return NewSim() }}

// classIndex interns a link class into the per-class accounting axis.
func (s *Sim) classIndex(c hw.LinkClass) int {
	if id, ok := s.classID[c]; ok {
		return id
	}
	id := len(s.classes)
	s.classes = append(s.classes, c)
	s.classID[c] = id
	return id
}

// link returns the free-at time of the directed edge from->to.
func (s *Sim) link(from, to int) *float64 {
	return &s.linkFree[from*s.n+to]
}

// use occupies an exclusive device for dur cycles, queuing FIFO behind
// its earlier users and starting no earlier than ready, and returns the
// completion time. free is the device's free-at time, advanced to the
// completion.
func use(free *float64, ready, dur float64) float64 {
	if dur < 0 {
		panic(fmt.Sprintf("perfsim: negative use duration %v", dur))
	}
	start := *free
	if start < ready {
		start = ready
	}
	end := start + dur
	*free = end
	return end
}

// lowerSched registers one schedule for this run: its classes join the
// accounting axis in declaration order, and every hop's price slot is
// resolved once, here, from the class index the schedule carries.
func (s *Sim) lowerSched(sc *interconnect.Schedule) int32 {
	idx := int32(len(s.lows))
	if len(s.lows) < cap(s.lows) {
		s.lows = s.lows[:idx+1]
	} else {
		s.lows = append(s.lows, loweredSched{})
	}
	lo := &s.lows[idx]
	lo.sc = sc
	lo.classes = lo.classes[:0]
	for _, c := range sc.Classes {
		lo.classes = append(lo.classes, int32(s.classIndex(c)))
	}
	lo.fracs = lo.fracs[:0]
	lo.reduce = lo.reduce[:0]
	lo.bcast = lo.bcast[:0]
	lo.final = lo.final[:0]
	if len(sc.Classes) == 0 && len(sc.Reduce)+len(sc.Broadcast) > 0 {
		// A bare schedule (the pipeline's) executes no hops, but its
		// unresolved hops put the zero class first on the accounting
		// axis, and the pipeline's reports carry it there.
		s.classIndex(hw.LinkClass{})
		return idx
	}
	lo.reduce = lo.appendSlots(lo.reduce, sc.Reduce)
	lo.bcast = lo.appendSlots(lo.bcast, sc.Broadcast)
	for _, f := range sc.Final {
		lo.final = append(lo.final, lo.fracID(f.Frac))
	}
	return idx
}

func (s *Sim) span(chip int, category, label string, start, end float64) {
	if s.tl != nil && end > start {
		s.tl.Add(chip, category, label, start, end)
	}
}

// Run simulates the deployment and returns the runtime report.
func Run(d *deploy.Deployment) (*Result, error) {
	return RunTraced(d, nil)
}

// RunTraced simulates the deployment, additionally recording every
// kernel, DMA transfer, and link hop into tl (when non-nil).
func RunTraced(d *deploy.Deployment, tl *trace.Timeline) (*Result, error) {
	s := simPool.Get().(*Sim)
	res, err := s.RunTraced(d, tl)
	// Drop the per-run references before pooling so a parked arena
	// does not pin a deployment (or a timeline) alive.
	s.d = nil
	s.sched = nil
	s.tl = nil
	simPool.Put(s)
	return res, err
}

// Run simulates the deployment on this arena.
func (s *Sim) Run(d *deploy.Deployment) (*Result, error) { return s.RunTraced(d, nil) }

// RunTraced simulates the deployment on this arena, recording spans
// into tl when non-nil.
func (s *Sim) RunTraced(d *deploy.Deployment, tl *trace.Timeline) (*Result, error) {
	n := d.Plan.Chips
	var sched *interconnect.Schedule
	var err error
	if d.Plan.Strategy == partition.Pipeline {
		// The pipeline never executes the collective hops — it
		// transfers only on its handoff chain (resolved below) — so a
		// network that wires just the chain must not be rejected for
		// leaving collective edges undefined.
		sched, err = interconnect.NewBareSchedule(d.HW.Topology, n, d.HW.GroupSize)
	} else {
		// Collective schedules come from the process-wide intern cache:
		// lowering and validation run once per (network, chips,
		// topology) triple, so repeated evaluations — sweeps, frontier
		// grids, autotuning — never re-lower on the hot path. The
		// interned schedule is shared and read-only.
		sched, err = interconnect.CachedSchedule(d.HW, n)
	}
	if err != nil {
		return nil, err
	}
	commTile := int64(d.Options.CommTileBytes)
	if commTile == 0 {
		commTile = deploy.DefaultCommTileBytes
	}

	// Rebind the recycled arena to this run.
	s.d = d
	s.sched = sched
	s.curClass = classNone
	s.syncs = 0
	s.commTile = commTile
	s.tl = tl
	s.n = n
	s.flip = false
	s.freqHz = d.HW.Chip.FreqHz
	s.dmaL2BPC = d.HW.Chip.DMAL2L1BytesPerCycle
	s.dmaL2Setup = d.HW.Chip.DMAL2L1SetupCycles
	s.dmaL3BPC = d.HW.Chip.DMAL3L2BytesPerCycle
	s.dmaL3Setup = d.HW.Chip.DMAL3L2SetupCycles
	s.l1Tile = int64(d.HW.Chip.L1Bytes / 2)
	s.memEnabled = d.HW.Mem.Enabled()
	if s.memEnabled {
		s.memCh = memsim.ChannelOf(d.HW)
	}
	s.strChip, s.strFactor = d.Options.StragglerChip, d.Options.StragglerFactor
	s.degChip, s.degFactor = d.Options.DegradedLinkChip, d.Options.DegradedLinkFactor
	if s.scheds == nil {
		s.scheds = make(map[hw.Topology]int32, 4)
	} else {
		clear(s.scheds)
	}
	if s.classID == nil {
		s.classID = make(map[hw.LinkClass]int, 4)
	} else {
		clear(s.classID)
	}
	s.classes = s.classes[:0]
	s.lows = s.lows[:0]

	// Seed the accounting axis with the schedule's classes so class
	// order is deterministic (first reduce hop's class is class 0)
	// regardless of which hop executes first, and resolve the run
	// schedule's per-hop class ids (lows index 0, schedFor's default).
	s.scheds[sched.Topology] = s.lowerSched(sched)
	// Resolve one schedule per topology the collective plan binds to a
	// class this run executes, each lowered and validated against the
	// network wiring up front (through the same intern cache as the run
	// schedule) — a plan routing an active class over an unwired edge
	// fails here, before any simulation runs, while a merged
	// prefill+decode plan never pays (or fails) for the other mode's
	// bindings. The run topology's schedule is reused
	// untouched, so the zero plan stays byte-identical to the
	// single-topology simulator. The pipeline strategy executes no
	// collectives and skips the lowering (its network may wire only
	// the handoff chain).
	if d.Plan.Strategy != partition.Pipeline {
		for _, cl := range collective.ActiveClasses(d.Plan.Strategy, d.Mode) {
			topo, bound := d.Options.SyncPlan.Explicit(cl)
			if !bound {
				continue
			}
			if _, ok := s.scheds[topo]; ok {
				continue
			}
			hp := d.HW
			hp.Topology = topo
			alt, err := interconnect.CachedSchedule(hp, n)
			if err != nil {
				return nil, fmt.Errorf("perfsim: collective plan: %w", err)
			}
			s.scheds[topo] = s.lowerSched(alt)
		}
	}
	if d.Plan.Strategy == partition.Pipeline {
		// The pipeline handoff chain is not part of the collective
		// schedule; it is routed and class-resolved against the network
		// up front (through the interconnect intern cache, once per
		// (network, chips) pair), so a severed chain fails before
		// simulation, like any schedule hop over an undefined edge. A
		// stage boundary whose direct edge is unwired — a sparse fabric
		// or a degraded board — executes its routed multi-hop segment;
		// on fully wired networks every segment is the single direct
		// hop, byte-identical to the legacy chain.
		chain, err := interconnect.CachedPipelineChain(d.HW.Network, n)
		if err != nil {
			return nil, fmt.Errorf("perfsim: %w", err)
		}
		s.pipeHops = s.pipeHops[:0]
		s.pipeOff = append(s.pipeOff[:0], 0)
		for c := 0; c+1 < n; c++ {
			for _, h := range chain.Segment(c) {
				s.pipeHops = append(s.pipeHops, pipeHop{
					from:  int32(h.From),
					to:    int32(h.To),
					class: int32(s.classIndex(h.Class)),
				})
			}
			s.pipeOff = append(s.pipeOff, int32(len(s.pipeHops)))
		}
	}

	// The class axis is final; carve the per-chip and per-class
	// counters full-width from the arena's backing arrays.
	nc := len(s.classes)
	s.chipClassCycles = growFloats(s.chipClassCycles, n*nc)
	s.chipClassBytes = growInts(s.chipClassBytes, n*nc)
	if cap(s.stats) < n {
		s.stats = make([]ChipStats, n)
	}
	s.stats = s.stats[:n]
	for i := 0; i < n; i++ {
		s.stats[i] = ChipStats{
			C2CCyclesByClass:    carveFloats(s.chipClassCycles, i, nc),
			C2CSentBytesByClass: carveInts(s.chipClassBytes, i, nc),
		}
	}
	s.accByLink = growInts(s.accByLink, int(collective.NumSyncClasses)*nc)
	for c := range s.classAcc {
		s.classAcc[c] = classAccum{byLink: carveInts(s.accByLink, c, nc)}
	}

	// Device timelines: the chips' exclusive devices and one
	// full-duplex link per directed pair, all free from time zero.
	s.chipFree = growFloats(s.chipFree, 3*n)
	s.cluster = s.chipFree[:n]
	s.dma = s.chipFree[n : 2*n]
	s.io = s.chipFree[2*n : 3*n]
	s.linkFree = growFloats(s.linkFree, n*n)

	// Synchronization scratch: readiness matrices sized for the widest
	// schedule, ping-pong arrival buffers, phase timelines.
	maxChunks := 0
	for i := range s.lows {
		if c := s.lows[i].sc.Chunks; c > maxChunks {
			maxChunks = c
		}
	}
	s.partial = growFloats(s.partial, n*maxChunks)
	s.has = growFloats(s.has, n*maxChunks)
	s.syncA = growFloats(s.syncA, n)
	s.syncB = growFloats(s.syncB, n)
	s.phaseBuf = growFloats(s.phaseBuf, 3*n)

	var end float64
	switch d.Plan.Strategy {
	case partition.TensorParallel:
		end = s.runTensorParallel()
	case partition.Replicated:
		end = s.runReplicated()
	case partition.Pipeline:
		end = s.runPipeline()
	default:
		return nil, fmt.Errorf("perfsim: unknown strategy %v", d.Plan.Strategy)
	}

	// Results escape into caches shared between callers (evalpool
	// memoizes them as immutable), so every accumulator is copied out
	// of the arena into exact-size fresh slices: the per-chip class
	// counters carve two backing arrays, one allocation each.
	res := &Result{
		TotalCycles: end,
		Syncs:       s.syncs,
		TreeDepth:   sched.Depth,
		Topology:    sched.Topology,
		LinkClasses: append([]hw.LinkClass(nil), s.classes...),
		PerChip:     make([]ChipStats, n),
	}
	cyc := make([]float64, n*nc)
	byt := make([]int64, n*nc)
	copy(cyc, s.chipClassCycles)
	copy(byt, s.chipClassBytes)
	for i := range s.stats {
		res.PerChip[i] = s.stats[i]
		res.PerChip[i].C2CCyclesByClass = carveFloats(cyc, i, nc)
		res.PerChip[i].C2CSentBytesByClass = carveInts(byt, i, nc)
		res.TotalC2CBytes += s.stats[i].C2CSentBytes
	}
	nActive := 0
	for c := range s.classAcc {
		if s.classAcc[c].syncs > 0 {
			nActive++
		}
	}
	if nActive > 0 {
		res.ByClass = make([]ClassStats, 0, nActive)
		links := make([]int64, nActive*nc)
		li := 0
		for c := collective.SyncClass(0); c < collective.NumSyncClasses; c++ {
			acc := &s.classAcc[c]
			if acc.syncs == 0 {
				continue
			}
			bl := carveInts(links, li, nc)
			copy(bl, acc.byLink)
			li++
			res.ByClass = append(res.ByClass, ClassStats{
				Class:              c,
				Topology:           acc.topology,
				Syncs:              acc.syncs,
				C2CCycles:          acc.cycles,
				C2CSentBytes:       acc.bytes,
				C2CSentBytesByLink: bl,
			})
		}
	}
	if d.Plan.Strategy == partition.Pipeline {
		// Stages run serially: the whole-system breakdown is the sum
		// of per-stage activity plus the link handoffs.
		for i := range s.stats {
			res.Breakdown.Compute += s.stats[i].ComputeCycles
			res.Breakdown.L2L1 += s.stats[i].L2L1Cycles
			res.Breakdown.L3 += s.stats[i].L3Cycles
		}
	} else {
		// The root participates in every phase and sync; gaps in its
		// timeline are waits on remote partials (chip-to-chip time).
		rb := &s.stats[sched.Root]
		res.Breakdown = Breakdown{
			Compute: rb.ComputeCycles,
			L2L1:    rb.L2L1Cycles,
			L3:      rb.L3Cycles,
		}
	}
	res.Breakdown.C2C = end - res.Breakdown.Compute - res.Breakdown.L2L1 - res.Breakdown.L3
	// Clamp floating-point residue: a system that moved no link bytes
	// has no chip-to-chip time.
	if res.Breakdown.C2C < 0 || (res.TotalC2CBytes == 0 && res.Breakdown.C2C < 1e-6*end) {
		res.Breakdown.C2C = 0
	}
	return res, nil
}

// growFloats returns a zeroed length-n slice, reusing buf's backing
// array when it is large enough.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// growInts is growFloats for int64 scratch.
func growInts(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// carveFloats cuts row i of width nc out of a flat backing array,
// capacity-clamped. A zero-width axis yields nil, matching the slices
// a run with no link classes historically reported.
func carveFloats(backing []float64, i, nc int) []float64 {
	if nc == 0 {
		return nil
	}
	return backing[i*nc : (i+1)*nc : (i+1)*nc]
}

// carveInts is carveFloats for int64 rows.
func carveInts(backing []int64, i, nc int) []int64 {
	if nc == 0 {
		return nil
	}
	return backing[i*nc : (i+1)*nc : (i+1)*nc]
}

// l2l1 prices a kernel's L2↔L1 traffic: its bytes and their DMA time.
func (s *Sim) l2l1(cost *kernels.Cost) (int64, float64) {
	bytes := cost.TotalL2L1Bytes()
	if bytes <= 0 {
		return bytes, 0
	}
	return bytes, kernels.DMATime(bytes, s.dmaL2BPC, s.dmaL2Setup, s.l1Tile)
}

// priceScaled prices a fraction of a kernel's cost (tile-level
// collective work) once, for exec to replay on every chip that runs it.
func (s *Sim) priceScaled(cost *kernels.Cost, frac float64) pricedCost {
	scaled := kernels.Cost{
		Cycles:      cost.Cycles * frac,
		ActInBytes:  int64(float64(cost.ActInBytes) * frac),
		ActOutBytes: int64(float64(cost.ActOutBytes) * frac),
	}
	bytes, dmaT := s.l2l1(&scaled)
	return pricedCost{name: cost.Name, bytes: bytes, dmaT: dmaT, cycles: scaled.Cycles}
}

// execCost runs one kernel on a chip starting no earlier than t.
func (s *Sim) execCost(chip int, t float64, cost *kernels.Cost) float64 {
	bytes, dmaT := s.l2l1(cost)
	return s.exec(chip, t, cost.Name, bytes, dmaT, cost.Cycles)
}

// exec runs one priced kernel on a chip starting no earlier than t:
// tile DMA and compute serialize, matching the stacked accounting. A
// straggler chip's compute is slowed here, per execution.
func (s *Sim) exec(chip int, t float64, name string, bytes int64, dmaT, cycles float64) float64 {
	if bytes > 0 {
		t = use(&s.dma[chip], t, dmaT)
		s.span(chip, "dma-l2l1", name, t-dmaT, t)
		s.stats[chip].L2L1Cycles += dmaT
		s.stats[chip].L2L1Bytes += bytes
	}
	if cycles > 0 {
		if f := s.strFactor; f > 0 && chip == s.strChip {
			cycles /= f
		}
		t = use(&s.cluster[chip], t, cycles)
		s.span(chip, "compute", name, t-cycles, t)
		s.stats[chip].ComputeCycles += cycles
	}
	if t > s.stats[chip].End {
		s.stats[chip].End = t
	}
	return t
}

// l3Time prices moving bytes over the off-chip path: the DRAM channel
// (per-burst setup + bandwidth) under the hierarchical model, the flat
// I/O-DMA accounting otherwise.
func (s *Sim) l3Time(bytes int64) float64 {
	if s.memEnabled {
		return s.memCh.TransferCycles(bytes)
	}
	return kernels.DMATime(bytes, s.dmaL3BPC, s.dmaL3Setup, s.l1Tile)
}

// l3Load streams bytes from L3 into L2 starting no earlier than t and
// returns the completion time. spill marks activation-spill traffic.
func (s *Sim) l3Load(chip int, t float64, bytes int64, spill bool) float64 {
	if bytes <= 0 {
		return t
	}
	dur := s.l3Time(bytes)
	end := use(&s.io[chip], t, dur)
	if s.tl != nil {
		label := "weights"
		if spill {
			label = "act-spill"
		}
		s.span(chip, "dma-l3", label, end-dur, end)
	}
	s.stats[chip].L3Cycles += dur
	s.stats[chip].L3Bytes += bytes
	if spill {
		s.stats[chip].L3SpillBytes += bytes
	}
	if end > s.stats[chip].End {
		s.stats[chip].End = end
	}
	return end
}

// l3Background charges prefetch traffic that is off the critical path:
// bytes and engine occupancy, no dependency for the caller. Returns
// the transfer duration.
func (s *Sim) l3Background(chip int, t float64, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	dur := s.l3Time(bytes)
	end := use(&s.io[chip], t, dur)
	s.span(chip, "dma-l3", "prefetch", end-dur, end)
	s.stats[chip].L3Bytes += bytes
	return dur
}

// phase executes a kernel list with optional synchronous L3 traffic
// (TierStreamed weights + activation spill), serialized before the
// compute as on a capacity-starved chip. plans, when non-nil, is the
// index-parallel tile-plan list of the hierarchical memory model:
// planned kernels execute tile-by-tile through the DRAM channel
// instead of the monolithic execCost path.
func (s *Sim) phase(chip int, t float64, ops []kernels.Cost, plans []*memsim.Plan, exposedL3 int64, spillShare int64) float64 {
	if exposedL3 > 0 {
		weightPart := exposedL3 - spillShare
		if weightPart > 0 {
			t = s.l3Load(chip, t, weightPart, false)
		}
		if spillShare > 0 {
			t = s.l3Load(chip, t, spillShare, true)
		}
	}
	for i := range ops {
		if plans != nil && plans[i] != nil {
			t = s.execTiled(chip, t, &ops[i], plans[i])
		} else {
			t = s.execCost(chip, t, &ops[i])
		}
	}
	return t
}

// execTiled runs one weight-streaming GEMM tile-by-tile: each tile's
// DRAM fetch occupies the chip's io engine (gated by the channel being
// free and by its stream-buffer slot having drained, Depth+1 slots),
// then its L2→L1 DMA and compute+stall serialize after the previous
// tile's work — exactly the recurrence Plan.Makespan evaluates in
// closed form, so with a free chip the elapsed time equals the plan
// makespan (pinned by a test; the identity is what lets the autotuner
// rank tilings without simulating).
//
// Accounting: per-tile DMA and compute are billed to their own
// breakdown buckets, bank-contention stalls and the fetch latency the
// prefetch failed to hide are billed as off-chip (L3) time, and the
// whole weight matrix is billed once as off-chip bytes — so the root
// chip's buckets still sum exactly to its elapsed time.
func (s *Sim) execTiled(chip int, t float64, cost *kernels.Cost, p *memsim.Plan) float64 {
	slots := p.Depth + 1
	ring := growFloats(s.tileRing, slots)
	s.tileRing = ring
	start := t
	prevCd := t
	var charged float64
	st := &s.stats[chip]
	for i := 0; i < p.Tiles; i++ {
		ready := start
		if r := ring[i%slots]; r > ready {
			ready = r
		}
		fEnd := use(&s.io[chip], ready, p.Fetch[i])
		if s.tl != nil {
			s.span(chip, "dma-l3", "tile-fetch", fEnd-p.Fetch[i], fEnd)
		}
		dEnd := use(&s.dma[chip], maxF(fEnd, prevCd), p.DMA[i])
		s.span(chip, "dma-l2l1", cost.Name, dEnd-p.DMA[i], dEnd)
		comp := p.Comp[i]
		if f := s.strFactor; f > 0 && chip == s.strChip {
			comp /= f
		}
		work := comp + p.Stall[i]
		cEnd := use(&s.cluster[chip], dEnd, work)
		s.span(chip, "compute", cost.Name, cEnd-work, cEnd)
		st.L2L1Cycles += p.DMA[i]
		st.L2L1Bytes += p.L2L1Bytes[i]
		st.ComputeCycles += comp
		st.L3Cycles += p.Stall[i]
		charged += p.DMA[i] + comp + p.Stall[i]
		ring[i%slots] = cEnd
		prevCd = cEnd
	}
	st.L3Bytes += p.WeightBytes
	if exposed := (prevCd - start) - charged; exposed > 0 {
		st.L3Cycles += exposed
	}
	if prevCd > st.End {
		st.End = prevCd
	}
	return prevCd
}

// hop moves payload across the directed link from->to, taking dur
// cycles at the nominal rate of its interned link class id — each edge
// transfers at its own class's rate and setup cost, which is what lets
// one schedule mix fast local links with a slow backhaul. Links
// touching a degraded chip (failure injection) transfer at the
// configured fraction of nominal bandwidth.
func (s *Sim) hop(from, to int, ready float64, payload int64, dur float64, id int32) float64 {
	if f := s.degFactor; f > 0 && (from == s.degChip || to == s.degChip) {
		dur /= f
	}
	end := use(s.link(from, to), ready, dur)
	if s.tl != nil {
		// Each tree edge is its own full-duplex PHY: trace it as its
		// own exclusive resource. The labels are formatted only on the
		// traced (cold) path — they were the hot path's single biggest
		// allocation source.
		s.span(from, fmt.Sprintf("link%d-%d", from, to), fmt.Sprintf("%d->%d", from, to), end-dur, end)
	}
	st := &s.stats[from]
	st.C2CCycles += dur
	st.C2CSentBytes += payload
	st.C2CCyclesByClass[id] += dur
	st.C2CSentBytesByClass[id] += payload
	if s.curClass != classNone {
		acc := &s.classAcc[s.curClass]
		acc.cycles += dur
		acc.bytes += payload
		acc.byLink[id] += payload
	}
	if end > st.End {
		st.End = end
	}
	if end > s.stats[to].End {
		s.stats[to].End = end
	}
	return end
}

// appendTiles cuts a payload into tiles of at most commTile bytes,
// appending into the caller's scratch buffer.
func appendTiles(buf []int64, payload, commTile int64) []int64 {
	if payload <= 0 {
		return append(buf, 0)
	}
	for payload > 0 {
		t := payload
		if t > commTile {
			t = commTile
		}
		buf = append(buf, t)
		payload -= t
	}
	return buf
}

// schedFor resolves the schedule a synchronization class executes:
// the collective plan's binding, or the run topology's schedule (lows
// index 0). Every schedule a plan can select was lowered up front in
// RunTraced.
func (s *Sim) schedFor(class collective.SyncClass) *loweredSched {
	if topo, ok := s.d.Options.SyncPlan.Explicit(class); ok {
		return &s.lows[s.scheds[topo]]
	}
	return &s.lows[0]
}

// sync performs one collective synchronization — reduce + root work +
// broadcast — by executing the hop schedule its class is bound to,
// pipelined over payload tiles. ready[i] is when chip i's partial is
// available; the returned slice is when each chip holds the broadcast
// result. rootWork runs (tile- and share-proportionally) on the
// schedule's finalizing chips between a tile's reduction and its
// broadcast.
//
// Readiness is tracked per (chip, chunk): partial[c*chunks+q] is when
// chip c's accumulator for chunk q last settled, has[c*chunks+q] when
// chip c received the finalized chunk q. Whole-payload topologies use
// a single chunk, reducing to the original tree recursion; the ring's
// 2(N-1)-step chunk rotation needs the extra axis so a chip's send of
// one chunk never waits on its concurrent receive of another.
//
// Pricing is hoisted out of the hop loops: the reduce-add and root
// work are priced once per distinct fraction per sync, and each tile's
// transfers once per (fraction, link class) price slot, so a hop only
// applies the straggler and degraded-link slowdowns and occupies its
// devices. The prices are the same pure functions of the same inputs,
// so every result is bit-identical to pricing each hop afresh.
//
// The returned arrival slice is arena scratch: syncs alternate between
// two buffers, so it stays valid across exactly one subsequent sync —
// the only lifetime the phase loops need.
func (s *Sim) sync(class collective.SyncClass, ready []float64, reducePayload, bcastPayload int64, rootWork []kernels.Cost) []float64 {
	s.syncs++
	n := s.d.Plan.Chips
	lo := s.schedFor(class)
	sc := lo.sc
	acc := &s.classAcc[class]
	acc.topology = sc.Topology
	acc.syncs++
	s.curClass = class
	defer func() { s.curClass = classNone }()

	s.tiles = appendTiles(s.tiles[:0], reducePayload, s.commTile)
	tiles := s.tiles
	nt := len(tiles)
	bcastTiles := appendTiles(s.bcast[:0], bcastPayload, s.commTile)
	// Align tile counts (reduce fraction governs; broadcast payload
	// is split proportionally).
	for len(bcastTiles) < nt {
		bcastTiles = append(bcastTiles, 0)
	}
	if len(bcastTiles) > nt {
		merged := int64(0)
		for _, b := range bcastTiles[nt-1:] {
			merged += b
		}
		bcastTiles = append(bcastTiles[:nt-1], merged)
	}
	s.bcast = bcastTiles

	// arrive[c] tracks when chip c holds all broadcast tiles (its
	// start time for the next phase) — the ping-pong half the previous
	// sync did not return.
	arrive := s.syncB
	if s.flip = !s.flip; s.flip {
		arrive = s.syncA
	}
	copy(arrive, ready)

	// Every tile runs the same share of the reduce-add and the root
	// work, so each is priced once per distinct fraction.
	frac := 1.0 / float64(nt)
	s.addPrices = s.addPrices[:0]
	s.rootPrices = s.rootPrices[:0]
	for _, f := range lo.fracs {
		s.addPrices = append(s.addPrices, s.priceScaled(&s.d.ReduceAdd, frac*f))
		for i := range rootWork {
			s.rootPrices = append(s.rootPrices, s.priceScaled(&rootWork[i], frac*f))
		}
	}
	nc := len(lo.classes)
	if cap(s.hopPrices) < len(lo.fracs)*nc {
		s.hopPrices = make([]hopPrice, len(lo.fracs)*nc)
	}
	prices := s.hopPrices[:len(lo.fracs)*nc]

	chunks := sc.Chunks
	partial := s.partial
	has := s.has
	for k := 0; k < nt; k++ {
		for j := range prices {
			f, c := j/nc, j%nc
			p := &prices[j]
			cls := &s.classes[lo.classes[c]]
			p.reduce = interconnect.ScalePayload(tiles[k], lo.fracs[f])
			p.bcast = interconnect.ScalePayload(bcastTiles[k], lo.fracs[f])
			p.reduceDur = cls.TransferCycles(s.freqHz, p.reduce)
			p.bcastDur = cls.TransferCycles(s.freqHz, p.bcast)
			p.class, p.frac = lo.classes[c], int32(f)
		}
		for c := 0; c < n; c++ {
			for q := 0; q < chunks; q++ {
				partial[c*chunks+q] = ready[c]
				has[c*chunks+q] = 0
			}
		}
		for i := range sc.Reduce {
			h := &sc.Reduce[i]
			p := &prices[lo.reduce[i]]
			start := partial[h.From*chunks+h.Chunk]
			if !h.FromAccumulated {
				// All-to-all sends the original partial; only the
				// receiver accumulates.
				start = ready[h.From]
			}
			end := s.hop(h.From, h.To, start, p.reduce, p.reduceDur, p.class)
			a := &s.addPrices[p.frac]
			addEnd := s.exec(h.To, maxF(end, partial[h.To*chunks+h.Chunk]), a.name, a.bytes, a.dmaT, a.cycles)
			partial[h.To*chunks+h.Chunk] = addEnd
		}
		for j, f := range sc.Final {
			t := partial[f.Chip*chunks+f.Chunk]
			row := s.rootPrices[int(lo.final[j])*len(rootWork):][:len(rootWork)]
			for i := range row {
				t = s.exec(f.Chip, t, row[i].name, row[i].bytes, row[i].dmaT, row[i].cycles)
			}
			if t > arrive[f.Chip] {
				arrive[f.Chip] = t
			}
			has[f.Chip*chunks+f.Chunk] = t
		}
		for i := range sc.Broadcast {
			h := &sc.Broadcast[i]
			p := &prices[lo.bcast[i]]
			end := s.hop(h.From, h.To, has[h.From*chunks+h.Chunk], p.bcast, p.bcastDur, p.class)
			if end > has[h.To*chunks+h.Chunk] {
				has[h.To*chunks+h.Chunk] = end
			}
			if end > arrive[h.To] {
				arrive[h.To] = end
			}
		}
	}
	return arrive
}

func (s *Sim) runTensorParallel() float64 {
	n := s.d.Plan.Chips
	blocks := s.d.Chips[0].Blocks
	ready := s.phaseBuf[0:n]
	blockStart := s.phaseBuf[n : 2*n]
	phaseEnd := s.phaseBuf[2*n : 3*n]

	// The block's two synchronizations, classed by mode: [MHSA, FFN]
	// in prefill or decode flavor.
	cls := collective.ActiveClasses(partition.TensorParallel, s.d.Mode)

	for b := 0; b < blocks; b++ {
		copy(blockStart, ready)

		for c := 0; c < n; c++ {
			cd := &s.d.Chips[c]
			t := ready[c]
			if cd.Tier == deploy.TierResidentSingle {
				// Next block's weights load synchronously between
				// blocks.
				t = s.l3Load(c, t, cd.BlockLoadBytes, false)
			}
			spill := cd.ExposedMHSABytes - s.weightPartOf(cd, true)
			phaseEnd[c] = s.phase(c, t, cd.MHSA, cd.MHSAStream, cd.ExposedMHSABytes, spill)
		}
		afterMHSA := s.sync(cls[0], phaseEnd, s.d.ReducePayload, s.d.BcastPayload, s.d.RootSync)

		for c := 0; c < n; c++ {
			cd := &s.d.Chips[c]
			spill := cd.ExposedFCBytes - s.weightPartOf(cd, false)
			phaseEnd[c] = s.phase(c, afterMHSA[c], cd.FC, cd.FCStream, cd.ExposedFCBytes, spill)
		}
		ready = s.sync(cls[1], phaseEnd, s.d.ReducePayload, s.d.BcastPayload, s.d.RootSync)

		// Double-buffered prefetch of the next block's weights:
		// energy always, runtime only under the exposure ablation.
		for c := 0; c < n; c++ {
			cd := &s.d.Chips[c]
			if cd.Tier != deploy.TierDoubleBuffered {
				continue
			}
			dur := s.l3Background(c, blockStart[c], cd.StreamBytesPerBlock)
			if s.d.Options.PrefetchExposed {
				if exposed := dur - (ready[c] - blockStart[c]); exposed > 0 {
					s.stats[c].L3Cycles += exposed
					ready[c] += exposed
					if ready[c] > s.stats[c].End {
						s.stats[c].End = ready[c]
					}
				}
			}
		}
	}
	return maxAll(ready)
}

// weightPartOf returns the weight share of a phase's exposed L3 bytes.
// Zero under the hierarchical memory model: streamed weights execute
// through their tile plans, so the exposed bytes are pure spill.
func (s *Sim) weightPartOf(cd *deploy.ChipDeploy, mhsa bool) int64 {
	if cd.Tier != deploy.TierStreamed || s.memEnabled {
		return 0
	}
	var mw, fw int64
	for _, op := range cd.MHSA {
		mw += op.WeightBytes
	}
	for _, op := range cd.FC {
		fw += op.WeightBytes
	}
	total := mw + fw
	if total == 0 {
		return 0
	}
	if mhsa {
		return cd.StreamBytesPerBlock * mw / total
	}
	return cd.StreamBytesPerBlock * fw / total
}

func (s *Sim) runReplicated() float64 {
	n := s.d.Plan.Chips
	blocks := s.d.Chips[0].Blocks
	cfg := s.d.Plan.Config
	sq := queryRowsOf(s.d)
	active := 0
	for c := 0; c < n; c++ {
		if len(s.d.Chips[c].MHSA) > 0 {
			active++
		}
	}
	// Context exchange payload: each chip's keys/values for its rows;
	// output exchange payload: its output rows.
	rows := (sq + n - 1) / n
	kvPayload := int64(rows) * int64(2*cfg.P) * int64(cfg.ActBytes)
	outPayload := int64(rows) * int64(cfg.E) * int64(cfg.ActBytes)

	ready := s.phaseBuf[0:n]
	phaseEnd := s.phaseBuf[n : 2*n]
	for b := 0; b < blocks; b++ {
		for c := 0; c < n; c++ {
			cd := &s.d.Chips[c]
			t := ready[c]
			if cd.Tier == deploy.TierResidentSingle {
				t = s.l3Load(c, t, cd.BlockLoadBytes, false)
			}
			spill := cd.ExposedMHSABytes - s.weightPartOf(cd, true)
			phaseEnd[c] = s.phase(c, t, cd.MHSA, cd.MHSAStream, cd.ExposedMHSABytes, spill)
		}
		if active > 1 {
			// Two synchronizations per block: K/V exchange before
			// attention and output exchange after the block.
			mid := s.sync(collective.KVExchange, phaseEnd, kvPayload, kvPayload, nil)
			ready = s.sync(collective.OutputExchange, mid, outPayload, outPayload, nil)
		} else {
			ready = phaseEnd
		}
	}
	return maxAll(ready)
}

func (s *Sim) runPipeline() float64 {
	n := s.d.Plan.Chips
	cfg := s.d.Plan.Config
	sq := queryRowsOf(s.d)
	actPayload := int64(sq) * int64(cfg.E) * int64(cfg.ActBytes)

	t := 0.0
	for c := 0; c < n; c++ {
		cd := &s.d.Chips[c]
		for b := 0; b < cd.Blocks; b++ {
			if cd.Tier == deploy.TierResidentSingle {
				t = s.l3Load(c, t, cd.BlockLoadBytes, false)
			}
			spill := cd.ExposedMHSABytes - s.weightPartOf(cd, true)
			t = s.phase(c, t, cd.MHSA, cd.MHSAStream, cd.ExposedMHSABytes, spill)
		}
		if c+1 < n {
			// The handoff executes its routed segment serially: one
			// direct hop on fully wired networks, multi-hop through
			// surviving chips when the direct edge is missing.
			for _, h := range s.pipeHops[s.pipeOff[c]:s.pipeOff[c+1]] {
				t = s.hop(int(h.from), int(h.to), t, actPayload,
					s.classes[h.class].TransferCycles(s.freqHz, actPayload), h.class)
			}
		}
	}
	return t
}

func queryRowsOf(d *deploy.Deployment) int {
	if d.Mode == model.Autoregressive {
		if d.Batch > 1 {
			return d.Batch
		}
		return 1
	}
	return d.SeqLen
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxAll(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
