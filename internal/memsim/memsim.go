// Package memsim models the off-chip memory path as a hierarchy
// instead of a flat byte count: streamed GEMM weights move through a
// DRAM channel (per-burst setup plus bandwidth) into a bounded stream
// buffer of tile slots, a prefetch engine runs up to PrefetchDepth
// tiles ahead of compute, and an N-bank SRAM arbiter charges a
// contention stall whenever a prefetch is in flight during a tile's
// compute.
//
// The unit of planning is one GEMM: PlanGEMM cuts its K×N weight
// matrix into TileK×TileN tiles (N-major order, so each output column
// group's partial sums complete before the next begins) and prices
// every tile's DRAM fetch, L2→L1 DMA, compute share, and bank stall.
// Plan.Makespan evaluates the pipeline recurrence in closed form; the
// performance simulator replays the identical per-tile costs on its
// device timelines, so the closed form and the simulated result agree
// exactly — which is what lets explore.AutotuneTiling use plan
// makespans as a zero-probe additive predictor.
//
// Tiling is a real trade-off, not a monotone knob: small tiles overlap
// better (more fetch/compute interleave) but pay more per-burst DRAM
// setups, more per-transfer DMA setups, and — because each column
// group re-reads the M×K activation slice — more activation refetch
// passes (ceil(N/TileN) of them). Attention-family GEMMs (narrow N
// per chip, M = 1 in decode) and FFN GEMMs (wide K and N) therefore
// prefer different tilings; that divergence is pinned as an ablation
// in internal/experiments.
package memsim

import (
	"fmt"
	"strconv"
	"strings"

	"mcudist/internal/hw"
	"mcudist/internal/kernels"
)

// Tiling names one weight-tile shape: K rows by N columns of the
// weight matrix, in elements. The zero value means "auto": the
// largest tile that fits one stream-buffer slot.
type Tiling struct {
	K, N int
}

// Zero reports whether the tiling requests auto sizing.
func (t Tiling) Zero() bool { return t.K == 0 && t.N == 0 }

// String prints the flag spelling "KxN" ("auto" for the zero value).
func (t Tiling) String() string {
	if t.Zero() {
		return "auto"
	}
	return fmt.Sprintf("%dx%d", t.K, t.N)
}

// ParseTiling parses the "KxN" flag spelling (e.g. "256x128" = 256
// rows of K by 128 columns of N); "auto" or "" yield the zero value.
func ParseTiling(s string) (Tiling, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" || s == "auto" {
		return Tiling{}, nil
	}
	a, b, ok := strings.Cut(s, "x")
	if !ok {
		return Tiling{}, fmt.Errorf("memsim: tiling %q is not KxN (e.g. 256x128) or auto", s)
	}
	k, err := strconv.Atoi(strings.TrimSpace(a))
	if err != nil {
		return Tiling{}, fmt.Errorf("memsim: tiling K in %q: %v", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(b))
	if err != nil {
		return Tiling{}, fmt.Errorf("memsim: tiling N in %q: %v", s, err)
	}
	if k <= 0 || n <= 0 {
		return Tiling{}, fmt.Errorf("memsim: tiling %q must have positive dims", s)
	}
	return Tiling{K: k, N: n}, nil
}

// Channel is the priced memory path of one chip: the DRAM side
// (payload bandwidth, burst granule, per-burst setup), the prefetch
// engine's depth and slot capacity, the SRAM bank count, and the
// L2→L1 cluster DMA the computed tiles still traverse.
type Channel struct {
	// BytesPerCycle is DRAM payload bandwidth per cluster cycle.
	BytesPerCycle float64
	// BurstBytes is the DRAM burst granule.
	BurstBytes int64
	// SetupCycles is the fixed cost of opening one burst.
	SetupCycles int
	// Depth is the prefetch depth: tiles the engine may run ahead.
	Depth int
	// Banks is the SRAM bank count of the arbiter.
	Banks int
	// SlotBytes is the capacity of one stream-buffer tile slot.
	SlotBytes int64
	// L2BytesPerCycle / L2SetupCycles / L1TileBytes describe the
	// cluster DMA that moves each fetched tile (plus its activation
	// slices) between L2 and L1.
	L2BytesPerCycle float64
	L2SetupCycles   int
	L1TileBytes     int64
}

// ChannelOf derives the priced channel from a platform description.
// Meaningful only when p.Mem.Enabled().
func ChannelOf(p hw.Params) Channel {
	return Channel{
		BytesPerCycle:   p.Mem.DRAMBytesPerCycle,
		BurstBytes:      int64(p.Mem.DRAMBurstBytes),
		SetupCycles:     p.Mem.DRAMBurstSetupCycles,
		Depth:           p.Mem.PrefetchDepth,
		Banks:           p.Mem.SRAMBanks,
		SlotBytes:       int64(p.Chip.L1Bytes / 2),
		L2BytesPerCycle: p.Chip.DMAL2L1BytesPerCycle,
		L2SetupCycles:   p.Chip.DMAL2L1SetupCycles,
		L1TileBytes:     int64(p.Chip.L1Bytes / 2),
	}
}

// TransferCycles prices moving n bytes over the DRAM channel:
// bandwidth time plus one setup per burst.
func (c Channel) TransferCycles(bytes int64) float64 {
	return kernels.DMATime(bytes, c.BytesPerCycle, c.SetupCycles, c.BurstBytes)
}

// GEMM is the planning view of one weight-streaming kernel: the M×K·K×N
// shape, element widths, and the kernel's total compute cycles (tile
// compute shares are prorated from it).
type GEMM struct {
	M, K, N         int
	WeightElemBytes int
	ActElemBytes    int
	ComputeCycles   float64
}

// GEMMOf extracts the planning view from a kernel cost. The second
// return is false for costs that don't stream a tileable weight
// matrix (elementwise kernels, activation-activation matmuls, and
// composite costs, whose dims Add deliberately dropped).
func GEMMOf(c kernels.Cost) (GEMM, bool) {
	if c.M <= 0 || c.K <= 0 || c.N <= 0 || c.WeightBytes <= 0 {
		return GEMM{}, false
	}
	kn := int64(c.K) * int64(c.N)
	mk := int64(c.M) * int64(c.K)
	wb := c.WeightBytes / kn
	ab := int64(1)
	if c.ActInBytes > 0 {
		ab = c.ActInBytes / mk
	}
	if wb <= 0 || ab <= 0 {
		return GEMM{}, false
	}
	return GEMM{
		M:               c.M,
		K:               c.K,
		N:               c.N,
		WeightElemBytes: int(wb),
		ActElemBytes:    int(ab),
		ComputeCycles:   c.Cycles,
	}, true
}

// Plan is the fully priced tile schedule of one GEMM: per-tile DRAM
// fetch time, L2→L1 DMA time, compute share, and bank-contention
// stall, in execution order (N-major, K-inner).
type Plan struct {
	Tiling Tiling
	// Tiles = ceil(K/TileK) * ceil(N/TileN).
	Tiles int
	// ActPasses = ceil(N/TileN): how many times the M×K activation
	// slice is re-read (once per output column group).
	ActPasses int
	// Depth and Banks echo the channel knobs the plan was priced
	// under (the recurrence needs Depth; Banks is already folded into
	// Stall).
	Depth, Banks int

	// Fetch[i] is tile i's DRAM channel occupancy.
	Fetch []float64
	// DMA[i] is tile i's L2→L1 cluster-DMA occupancy (weight tile +
	// activation slice in + partial out on column-group boundaries).
	DMA []float64
	// Comp[i] is tile i's prorated compute-cluster occupancy.
	Comp []float64
	// Stall[i] is the SRAM bank-contention charge: while tile i+1's
	// prefetch is in flight during tile i's work, the arbiter steals
	// min(work_i, fetch_{i+1}) / Banks cycles. Deterministic by
	// construction — it depends on the per-tile costs, not on event
	// timing — which keeps the closed form and the event replay
	// identical and makes the charge monotone in Banks.
	Stall []float64
	// L2L1Bytes[i] is tile i's L2↔L1 traffic in bytes.
	L2L1Bytes []int64

	// WeightBytes is the whole weight matrix (= sum of tile fetches'
	// payloads), billed once as off-chip traffic.
	WeightBytes int64
}

// resolveTiling returns the effective tiling: t itself when set, else
// the largest tile that fits one stream-buffer slot.
func resolveTiling(ch Channel, g GEMM, t Tiling) Tiling {
	if !t.Zero() {
		return t
	}
	return AutoTiling(ch, g)
}

// AutoTiling returns the default tile shape for a GEMM: start from the
// whole K×N matrix and repeatedly halve the larger dimension until the
// tile fits one stream-buffer slot. No overlap, minimal setups — the
// baseline the autotuner must beat.
func AutoTiling(ch Channel, g GEMM) Tiling {
	tk, tn := g.K, g.N
	wb := int64(g.WeightElemBytes)
	for int64(tk)*int64(tn)*wb > ch.SlotBytes {
		if tk >= tn && tk > 1 {
			tk = (tk + 1) / 2
		} else if tn > 1 {
			tn = (tn + 1) / 2
		} else {
			break
		}
	}
	return Tiling{K: tk, N: tn}
}

// PlanGEMM prices the tile schedule of one GEMM under the channel.
// The zero tiling auto-sizes; an explicit tiling whose tile exceeds
// the stream-buffer slot is an error.
func PlanGEMM(ch Channel, g GEMM, t Tiling) (*Plan, error) {
	if g.M <= 0 || g.K <= 0 || g.N <= 0 {
		return nil, fmt.Errorf("memsim: GEMM shape %dx%dx%d", g.M, g.K, g.N)
	}
	if ch.BytesPerCycle <= 0 || ch.Banks < 1 || ch.Depth < 1 || ch.SlotBytes <= 0 {
		return nil, fmt.Errorf("memsim: channel not configured (bandwidth %g, depth %d, banks %d, slot %d)",
			ch.BytesPerCycle, ch.Depth, ch.Banks, ch.SlotBytes)
	}
	t = resolveTiling(ch, g, t)
	tk, tn := t.K, t.N
	if tk <= 0 || tn <= 0 {
		return nil, fmt.Errorf("memsim: tiling %s must have positive dims", t)
	}
	if tk > g.K {
		tk = g.K
	}
	if tn > g.N {
		tn = g.N
	}
	wb := int64(g.WeightElemBytes)
	ab := int64(g.ActElemBytes)
	if int64(tk)*int64(tn)*wb > ch.SlotBytes {
		return nil, fmt.Errorf("memsim: tile %dx%d (%d B) exceeds stream-buffer slot (%d B)",
			tk, tn, int64(tk)*int64(tn)*wb, ch.SlotBytes)
	}

	nK := (g.K + tk - 1) / tk
	nN := (g.N + tn - 1) / tn
	tiles := nK * nN
	p := &Plan{
		Tiling:    Tiling{K: tk, N: tn},
		Tiles:     tiles,
		ActPasses: nN,
		Depth:     ch.Depth,
		Banks:     ch.Banks,
		Fetch:     make([]float64, tiles),
		DMA:       make([]float64, tiles),
		Comp:      make([]float64, tiles),
		Stall:     make([]float64, tiles),
		L2L1Bytes: make([]int64, tiles),
	}

	total := float64(g.K) * float64(g.N)
	i := 0
	for nIdx := 0; nIdx < nN; nIdx++ {
		tnI := tn
		if rem := g.N - nIdx*tn; rem < tn {
			tnI = rem
		}
		for kIdx := 0; kIdx < nK; kIdx++ {
			tkI := tk
			if rem := g.K - kIdx*tk; rem < tk {
				tkI = rem
			}
			wBytes := int64(tkI) * int64(tnI) * wb
			actIn := int64(g.M) * int64(tkI) * ab
			var actOut int64
			if kIdx == nK-1 {
				// The column group's accumulators are complete:
				// write the M×tnI output slice back.
				actOut = int64(g.M) * int64(tnI) * ab
			}
			l2l1 := wBytes + actIn + actOut
			p.Fetch[i] = ch.TransferCycles(wBytes)
			p.DMA[i] = kernels.DMATime(l2l1, ch.L2BytesPerCycle, ch.L2SetupCycles, ch.L1TileBytes)
			p.Comp[i] = g.ComputeCycles * float64(tkI) * float64(tnI) / total
			p.L2L1Bytes[i] = l2l1
			p.WeightBytes += wBytes
			i++
		}
	}
	for i := 0; i < tiles-1; i++ {
		work := p.DMA[i] + p.Comp[i]
		next := p.Fetch[i+1]
		if next < work {
			p.Stall[i] = next / float64(ch.Banks)
		} else {
			p.Stall[i] = work / float64(ch.Banks)
		}
	}
	return p, nil
}

// Makespan evaluates the pipeline recurrence in closed form: with
// slots = Depth+1 stream-buffer slots, tile i's fetch may start once
// the channel is free AND slot i mod slots has been drained by tile
// i-slots's compute; tile i's work (DMA + compute + stall) starts when
// its fetch has landed and the previous tile's work is done.
//
//	fd[i] = max(fd[i-1], cd[i-slots]) + Fetch[i]
//	cd[i] = max(cd[i-1], fd[i]) + DMA[i] + Comp[i] + Stall[i]
//
// The performance simulator replays the same schedule on its device
// timelines (io = channel, dma+cluster = work) and lands on this exact
// value — pinned by a test — so plan makespans double as an exact
// additive predictor for the tiling autotuner.
func (p *Plan) Makespan() float64 {
	slots := p.Depth + 1
	// cdRing[j] holds cd[i-slots+ (j offset)]; small fixed window.
	cdRing := make([]float64, slots)
	var fdPrev, cdPrev float64
	for i := 0; i < p.Tiles; i++ {
		fd := fdPrev
		if drained := cdRing[i%slots]; drained > fd {
			fd = drained
		}
		fd += p.Fetch[i]
		cs := cdPrev
		if fd > cs {
			cs = fd
		}
		cd := cs + p.DMA[i] + p.Comp[i] + p.Stall[i]
		fdPrev, cdPrev = fd, cd
		cdRing[i%slots] = cd
	}
	return cdPrev
}

// WorkCycles is the chip-busy portion of the plan: every tile's DMA,
// compute, and stall time (the part billed to the compute/DMA
// breakdown).
func (p *Plan) WorkCycles() float64 {
	var s float64
	for i := 0; i < p.Tiles; i++ {
		s += p.DMA[i] + p.Comp[i] + p.Stall[i]
	}
	return s
}

// ExposedCycles is the makespan not hidden behind work: the fetch
// latency the prefetch depth failed to overlap (billed as off-chip
// wait, the hierarchy's analogue of exposed L3 time).
func (p *Plan) ExposedCycles() float64 {
	return p.Makespan() - p.WorkCycles()
}

// minTileDim is the smallest tile dimension CandidateTilings descends
// to: below ~32 elements per axis the per-tile setup costs dominate
// any conceivable overlap win and the candidate grid just bloats.
const minTileDim = 32

// halvings returns d, ceil(d/2), ceil(d/4), ... down to minTileDim
// (always including d itself, even when d < minTileDim).
func halvings(d int) []int {
	var out []int
	for v := d; ; v = (v + 1) / 2 {
		out = append(out, v)
		if v <= minTileDim || v == 1 {
			break
		}
	}
	return out
}

// CandidateTilings enumerates the tiling candidates of a GEMM: the
// cross product of halving sequences of K and N, filtered to tiles
// that fit one stream-buffer slot, deduplicated, in deterministic
// (K-major descending) order. The auto tiling is always present —
// it is the largest fitting member of the grid.
func CandidateTilings(ch Channel, g GEMM) []Tiling {
	wb := int64(g.WeightElemBytes)
	seen := make(map[Tiling]bool)
	var out []Tiling
	for _, tk := range halvings(g.K) {
		for _, tn := range halvings(g.N) {
			if int64(tk)*int64(tn)*wb > ch.SlotBytes {
				continue
			}
			t := Tiling{K: tk, N: tn}
			if seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
