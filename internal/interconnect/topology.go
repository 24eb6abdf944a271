package interconnect

import (
	"fmt"
	"math"
	"math/bits"

	"mcudist/internal/hw"
)

// Final marks a chip that holds a fully reduced chunk and runs the
// synchronization's root work (residual/norm/requant) on it before the
// broadcast phase. The tree and star finalize everything on the root;
// the ring shards the work across all chips (1/N each); the
// fully-connected exchange replicates it on every chip.
type Final struct {
	Chip  int
	Chunk int
	// Frac is the share of the root work this chip executes.
	Frac float64
}

// Schedule is the lowered collective plan of one topology over N
// chips: dependency-ordered reduce and broadcast hop lists plus the
// root-work placement. The performance simulator executes a Schedule
// generically — every (From, To) pair is an independent full-duplex
// link resource — so adding a topology means adding a builder here,
// not touching the simulator.
type Schedule struct {
	Topology hw.Topology
	N        int
	// Root is the representative chip for runtime-breakdown
	// accounting (the reduction root for tree and star, chip 0 for
	// the symmetric topologies).
	Root int
	// Chunks is the number of payload chunks readiness is tracked
	// over (1 for whole-payload topologies, N for the ring).
	Chunks int
	// Depth is the number of serialized hop levels on the reduce
	// critical path: the tree's depth, 1 for star and fully-connected,
	// N-1 for the ring's reduce-scatter.
	Depth int
	// Reduce and Broadcast are the hop lists in dependency order.
	// NewSchedule resolves each hop's link class from the platform's
	// network description at lowering time.
	Reduce    []Hop
	Broadcast []Hop
	// Classes lists the distinct link classes the schedule's hops
	// resolved to, in first-use order — the per-class axis the
	// simulator splits its chip-to-chip accounting over. A uniform
	// network always yields exactly one class.
	Classes []hw.LinkClass
	// Final lists the chips running the root work, with their shares.
	Final []Final
	// Tree is the underlying reduction tree for the shapes that have
	// one (TopoTree and TopoStar), nil otherwise.
	Tree *Tree
}

// NewSchedule lowers the platform's topology selection onto n chips
// and resolves every hop's link class under the platform's network
// description (p.GroupSize is consulted only by the tree-lowered
// shapes). A topology that routes over an edge the network does not
// define — an unwired pair of a per-edge table — is rejected here,
// before any simulation runs.
func NewSchedule(p hw.Params, n int) (*Schedule, error) {
	s, err := NewBareSchedule(p.Topology, n, p.GroupSize)
	if err != nil {
		return nil, err
	}
	if err := s.annotate(p.Network); err != nil {
		return nil, err
	}
	return s, nil
}

// NewBareSchedule builds the hop structure of a topology without
// link-class annotation. It exists for consumers that never execute
// the collective hops — the pipeline strategy only reports the
// schedule's shape while transferring on its own handoff chain — so a
// network that wires just the chain (the natural measured table for a
// daisy-chained board) must not be rejected for leaving collective
// edges undefined. Everything that executes hops wants NewSchedule.
func NewBareSchedule(topo hw.Topology, n, groupSize int) (*Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("interconnect: need at least one chip, got %d", n)
	}
	switch topo {
	case hw.TopoTree:
		t, err := BuildTree(n, groupSize)
		if err != nil {
			return nil, err
		}
		return scheduleFromTree(hw.TopoTree, t), nil
	case hw.TopoStar:
		// The flat all-to-one shape is a degenerate tree whose one
		// group spans every chip; group size is irrelevant (but must
		// satisfy BuildTree's floor of 2).
		g := n
		if g < 2 {
			g = 2
		}
		t, err := BuildTree(n, g)
		if err != nil {
			return nil, err
		}
		return scheduleFromTree(hw.TopoStar, t), nil
	case hw.TopoRing:
		return ringSchedule(n), nil
	case hw.TopoFullyConnected:
		return fullyConnectedSchedule(n), nil
	default:
		return nil, fmt.Errorf("interconnect: %s is not a supported topology", topo)
	}
}

// annotate resolves each hop's link class under the network
// description and collects the distinct classes in first-use order
// (the per-class accounting axis of the simulator), recording each
// hop's index into them. Reduce hops are resolved before broadcast
// hops, so class 0 is always the class of the first reduce hop.
func (s *Schedule) annotate(net hw.Network) error {
	s.Classes = nil
	index := map[hw.LinkClass]int{}
	assign := func(hops []Hop) error {
		for i := range hops {
			c, err := net.LinkFor(hops[i].From, hops[i].To)
			if err != nil {
				return fmt.Errorf("interconnect: %s schedule over %d chips: hop %d->%d: %w",
					s.Topology, s.N, hops[i].From, hops[i].To, err)
			}
			id, ok := index[c]
			if !ok {
				id = len(s.Classes)
				index[c] = id
				s.Classes = append(s.Classes, c)
			}
			hops[i].Class, hops[i].ClassIdx = c, id
		}
		return nil
	}
	if err := assign(s.Reduce); err != nil {
		return err
	}
	return assign(s.Broadcast)
}

// scheduleFromTree lowers a reduction tree (hierarchical or flat) to
// the generic schedule: whole-payload hops, root work on the root.
func scheduleFromTree(topo hw.Topology, t *Tree) *Schedule {
	return &Schedule{
		Topology:  topo,
		N:         t.N,
		Root:      t.Root,
		Chunks:    1,
		Depth:     t.Depth(),
		Reduce:    t.ReduceHops(),
		Broadcast: t.BroadcastHops(),
		Final:     []Final{{Chip: t.Root, Chunk: 0, Frac: 1}},
		Tree:      t,
	}
}

// ringSchedule builds the classic ring all-reduce: a reduce-scatter of
// N-1 steps (chip i sends chunk (i-s) mod N to its successor, which
// accumulates it) followed by an all-gather of N-1 steps (chip i
// forwards chunk (i+1-s) mod N). After the reduce-scatter chip i owns
// the complete chunk (i+1) mod N and runs the root work on it, so the
// per-sync root work is sharded 1/N per chip. Every hop moves
// payload/N, which is what makes the ring bandwidth-optimal; the
// price is 2(N-1) serialized setup latencies.
func ringSchedule(n int) *Schedule {
	s := &Schedule{
		Topology: hw.TopoRing,
		N:        n,
		Root:     0,
		Chunks:   n,
		Depth:    n - 1,
	}
	frac := 1 / float64(n)
	for step := 0; step < n-1; step++ {
		for i := 0; i < n; i++ {
			s.Reduce = append(s.Reduce, Hop{
				From:            i,
				To:              (i + 1) % n,
				Chunk:           ((i-step)%n + n) % n,
				Frac:            frac,
				FromAccumulated: true,
			})
		}
	}
	for i := 0; i < n; i++ {
		s.Final = append(s.Final, Final{Chip: i, Chunk: (i + 1) % n, Frac: frac})
	}
	for step := 0; step < n-1; step++ {
		for i := 0; i < n; i++ {
			s.Broadcast = append(s.Broadcast, Hop{
				From:  i,
				To:    (i + 1) % n,
				Chunk: ((i+1-step)%n + n) % n,
				Frac:  frac,
			})
		}
	}
	if n == 1 {
		s.Depth = 0
		s.Final = []Final{{Chip: 0, Chunk: 0, Frac: 1}}
	}
	return s
}

// fullyConnectedSchedule builds the all-to-all exchange: every chip
// sends its original partial to every other chip and accumulates the
// N-1 partials it receives, then runs the full root work locally.
// One hop level deep and broadcast-free, at N(N-1) times the unit
// reduce traffic — the traffic extreme opposite the paper's tree.
func fullyConnectedSchedule(n int) *Schedule {
	s := &Schedule{
		Topology: hw.TopoFullyConnected,
		N:        n,
		Root:     0,
		Chunks:   1,
		Depth:    1,
	}
	if n == 1 {
		s.Depth = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			s.Reduce = append(s.Reduce, Hop{From: i, To: j, Frac: 1})
		}
	}
	for i := 0; i < n; i++ {
		s.Final = append(s.Final, Final{Chip: i, Chunk: 0, Frac: 1})
	}
	return s
}

// ScalePayload is the byte count one hop of the given fraction moves.
// Whole-payload hops (frac >= 1) pass the payload through untouched so
// the default tree stays byte-identical to the pre-topology simulator.
func ScalePayload(payload int64, frac float64) int64 {
	if frac >= 1 || payload <= 0 {
		return payload
	}
	return int64(math.Round(float64(payload) * frac))
}

// CollectiveBytes is the total link traffic of one synchronization
// under the schedule: the sum over hops of their payload share. For
// tree, star, and ring this is (N-1) * (reduce + bcast); the
// fully-connected exchange pays N(N-1) * reduce and broadcasts
// nothing.
func (s *Schedule) CollectiveBytes(reducePayload, bcastPayload int64) int64 {
	var total int64
	for _, h := range s.Reduce {
		total += ScalePayload(reducePayload, h.Frac)
	}
	for _, h := range s.Broadcast {
		total += ScalePayload(bcastPayload, h.Frac)
	}
	return total
}

// Validate checks the structural invariants every schedule must hold:
// indices in range, sane fractions, every hop resolved to a defined
// link class (no routing over unwired edges), each chip's partial
// reaching a finalizing chip exactly once per chunk, and the broadcast
// phase
// (together with the finalize placement) delivering every chunk to
// every chip in dependency order.
func (s *Schedule) Validate() error {
	if s.N <= 0 || s.Chunks <= 0 {
		return fmt.Errorf("interconnect: schedule over %d chips / %d chunks", s.N, s.Chunks)
	}
	if s.Root < 0 || s.Root >= s.N {
		return fmt.Errorf("interconnect: root %d out of range", s.Root)
	}
	if err := s.checkHops(s.Reduce); err != nil {
		return err
	}
	if err := s.checkHops(s.Broadcast); err != nil {
		return err
	}

	// Symbolic reduce over bitsets: for each (chip, chunk) accumulator,
	// once holds the chips whose original partial has been folded in
	// exactly once and multi those folded in twice or more. An
	// accumulated send moves the sender's live sets; a plain send moves
	// only the sender's own contribution.
	words := (s.N + 63) / 64
	rows := s.N * s.Chunks
	sets := make([]uint64, 2*rows*words)
	once, multi := sets[:rows*words], sets[rows*words:]
	row := func(set []uint64, chip, chunk int) []uint64 {
		i := (chip*s.Chunks + chunk) * words
		return set[i : i+words : i+words]
	}
	for c := 0; c < s.N; c++ {
		for q := 0; q < s.Chunks; q++ {
			row(once, c, q)[c/64] = 1 << (c % 64)
		}
	}
	for _, h := range s.Reduce {
		tOnce, tMulti := row(once, h.To, h.Chunk), row(multi, h.To, h.Chunk)
		if !h.FromAccumulated {
			w, b := h.From/64, uint64(1)<<(h.From%64)
			tMulti[w] |= tOnce[w] & b
			tOnce[w] = (tOnce[w] ^ b) &^ tMulti[w]
			continue
		}
		sOnce, sMulti := row(once, h.From, h.Chunk), row(multi, h.From, h.Chunk)
		for w := range tOnce {
			tMulti[w] |= sMulti[w] | tOnce[w]&sOnce[w]
			tOnce[w] = (tOnce[w] ^ sOnce[w]) &^ tMulti[w]
		}
	}
	for _, f := range s.Final {
		if f.Chip < 0 || f.Chip >= s.N || f.Chunk < 0 || f.Chunk >= s.Chunks {
			return fmt.Errorf("interconnect: finalize (%d, chunk %d) out of range", f.Chip, f.Chunk)
		}
		if f.Frac <= 0 || f.Frac > 1 {
			return fmt.Errorf("interconnect: finalize fraction %g out of (0,1]", f.Frac)
		}
		fOnce := row(once, f.Chip, f.Chunk)
		for w := range fOnce {
			valid := ^uint64(0)
			if rest := s.N - 64*w; rest < 64 {
				valid = 1<<rest - 1
			}
			if missing := ^fOnce[w] & valid; missing != 0 {
				chip := 64*w + bits.TrailingZeros64(missing)
				times := "0 times"
				if row(multi, f.Chip, f.Chunk)[w]&(1<<(chip%64)) != 0 {
					times = "more than once"
				}
				return fmt.Errorf("interconnect: chunk %d finalized on chip %d holds chip %d's partial %s, want exactly once",
					f.Chunk, f.Chip, chip, times)
			}
		}
	}
	if len(s.Final) == 0 {
		return fmt.Errorf("interconnect: no finalizing chip")
	}

	// Broadcast reachability: starting from the finalized (chip,
	// chunk) pairs, every hop must forward an already-present chunk,
	// and afterwards every chip must hold every chunk.
	has := make([]bool, rows)
	for _, f := range s.Final {
		has[f.Chip*s.Chunks+f.Chunk] = true
	}
	for _, h := range s.Broadcast {
		if !has[h.From*s.Chunks+h.Chunk] {
			return fmt.Errorf("interconnect: broadcast hop %d->%d forwards chunk %d before receiving it",
				h.From, h.To, h.Chunk)
		}
		has[h.To*s.Chunks+h.Chunk] = true
	}
	for i, ok := range has {
		if !ok {
			return fmt.Errorf("interconnect: chunk %d never reaches chip %d", i%s.Chunks, i/s.Chunks)
		}
	}
	return nil
}

// checkHops checks each hop's indices, fraction and link class.
func (s *Schedule) checkHops(hops []Hop) error {
	for _, h := range hops {
		if h.From < 0 || h.From >= s.N || h.To < 0 || h.To >= s.N || h.From == h.To {
			return fmt.Errorf("interconnect: hop %d->%d out of range", h.From, h.To)
		}
		if h.Chunk < 0 || h.Chunk >= s.Chunks {
			return fmt.Errorf("interconnect: hop %d->%d chunk %d out of range", h.From, h.To, h.Chunk)
		}
		if h.Frac <= 0 || h.Frac > 1 {
			return fmt.Errorf("interconnect: hop %d->%d fraction %g out of (0,1]", h.From, h.To, h.Frac)
		}
		if !h.Class.Defined() {
			return fmt.Errorf("interconnect: hop %d->%d crosses an undefined edge (no link class resolved; lower the schedule with NewSchedule against a network that wires it)", h.From, h.To)
		}
	}
	return nil
}
