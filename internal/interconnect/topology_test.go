package interconnect

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"mcudist/internal/hw"
)

// netParams returns a Siracusa platform (uniform MIPI network) with
// the given topology and group size.
func netParams(topo hw.Topology, groupSize int) hw.Params {
	p := hw.Siracusa()
	p.Topology = topo
	p.GroupSize = groupSize
	return p
}

// Every topology's schedule must satisfy the structural invariants:
// each chip's partial folded into a finalizing chip exactly once per
// chunk, and the broadcast phase delivering every chunk to every chip
// in dependency order. This covers the satellite invariants "every
// chip's partial reaches the root exactly once" and "broadcast
// reaches all chips" for all four shapes.
func TestScheduleInvariantsAllTopologies(t *testing.T) {
	for _, topo := range hw.Topologies() {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16, 33, 64} {
			sched, err := NewSchedule(netParams(topo, 4), n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", topo, n, err)
			}
			if err := sched.Validate(); err != nil {
				t.Errorf("%s n=%d: %v", topo, n, err)
			}
			if sched.N != n || sched.Topology != topo {
				t.Errorf("%s n=%d: schedule reports n=%d topo=%s", topo, n, sched.N, sched.Topology)
			}
		}
	}
}

// The default tree schedule must be exactly the tree's hop lists —
// the simulator path the golden tests pin byte-identical.
func TestTreeScheduleMatchesTree(t *testing.T) {
	sched, err := NewSchedule(netParams(hw.TopoTree, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := BuildTree(8, 4)
	if sched.Tree == nil || sched.Root != tr.Root || sched.Depth != tr.Depth() {
		t.Fatalf("tree schedule root/depth = %d/%d, want %d/%d",
			sched.Root, sched.Depth, tr.Root, tr.Depth())
	}
	if len(sched.Reduce) != len(tr.ReduceHops()) || len(sched.Broadcast) != len(tr.BroadcastHops()) {
		t.Fatal("tree schedule hop counts differ from the tree's")
	}
	for i, h := range sched.Reduce {
		want := tr.ReduceHops()[i]
		if h.From != want.From || h.To != want.To || h.Frac != 1 || !h.FromAccumulated || h.Chunk != 0 {
			t.Fatalf("reduce hop %d = %+v, want whole-payload %d->%d", i, h, want.From, want.To)
		}
	}
	if len(sched.Final) != 1 || sched.Final[0].Chip != tr.Root || sched.Final[0].Frac != 1 {
		t.Fatalf("tree finalize = %+v, want full root work on %d", sched.Final, tr.Root)
	}
}

// The star is the explicit spelling of the old GroupSize >= n flat
// tree: one group, every chip a direct child of the root.
func TestStarScheduleIsFlat(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		sched, err := NewSchedule(netParams(hw.TopoStar, 4), n) // group size ignored
		if err != nil {
			t.Fatal(err)
		}
		wantDepth := 1
		if n == 1 {
			wantDepth = 0
		}
		if sched.Depth != wantDepth {
			t.Errorf("star n=%d depth = %d, want %d", n, sched.Depth, wantDepth)
		}
		for i, h := range sched.Reduce {
			if h.To != sched.Root || h.From != i+1 {
				t.Errorf("star n=%d reduce hop %d = %+v, want %d->root", n, i, h, i+1)
			}
		}
	}
}

// Ring: 2(N-1) steps of N chunk hops each, chip i owning chunk
// (i+1) mod N after the reduce-scatter, root work sharded 1/N.
func TestRingScheduleShape(t *testing.T) {
	const n = 8
	sched, err := NewSchedule(netParams(hw.TopoRing, 4), n)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sched.Reduce); got != n*(n-1) {
		t.Fatalf("ring reduce hops = %d, want %d", got, n*(n-1))
	}
	if got := len(sched.Broadcast); got != n*(n-1) {
		t.Fatalf("ring bcast hops = %d, want %d", got, n*(n-1))
	}
	if sched.Chunks != n || sched.Depth != n-1 {
		t.Fatalf("ring chunks/depth = %d/%d, want %d/%d", sched.Chunks, sched.Depth, n, n-1)
	}
	var fracSum float64
	for _, f := range sched.Final {
		fracSum += f.Frac
		if f.Chunk != (f.Chip+1)%n {
			t.Errorf("chip %d finalizes chunk %d, want %d", f.Chip, f.Chunk, (f.Chip+1)%n)
		}
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Errorf("ring root-work shares sum to %g, want 1", fracSum)
	}
	for _, h := range append(append([]Hop{}, sched.Reduce...), sched.Broadcast...) {
		if h.To != (h.From+1)%n {
			t.Errorf("ring hop %d->%d leaves the ring", h.From, h.To)
		}
	}
}

// Fully connected: N(N-1) direct sends of the original partial, no
// broadcast, root work replicated on every chip.
func TestFullyConnectedScheduleShape(t *testing.T) {
	const n = 5
	sched, err := NewSchedule(netParams(hw.TopoFullyConnected, 4), n)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sched.Reduce); got != n*(n-1) {
		t.Fatalf("fc reduce hops = %d, want %d", got, n*(n-1))
	}
	if len(sched.Broadcast) != 0 {
		t.Fatal("fc must not broadcast")
	}
	if len(sched.Final) != n {
		t.Fatalf("fc finalizes on %d chips, want %d", len(sched.Final), n)
	}
	for _, h := range sched.Reduce {
		if h.FromAccumulated {
			t.Fatalf("fc hop %d->%d must send the original partial", h.From, h.To)
		}
	}
}

// Collective traffic per sync: (N-1)(reduce+bcast) for tree, star,
// and (up to chunk rounding) ring; N(N-1) * reduce for the
// fully-connected exchange.
func TestCollectiveBytes(t *testing.T) {
	const n, r, b = 8, 8192, 4096
	for _, tc := range []struct {
		topo hw.Topology
		want int64
	}{
		{hw.TopoTree, (n - 1) * (r + b)},
		{hw.TopoStar, (n - 1) * (r + b)},
		{hw.TopoRing, (n - 1) * (r + b)},
		{hw.TopoFullyConnected, n * (n - 1) * r},
	} {
		sched, err := NewSchedule(netParams(tc.topo, 4), n)
		if err != nil {
			t.Fatal(err)
		}
		got := sched.CollectiveBytes(r, b)
		// The ring rounds per-chunk payloads; r and b divide evenly
		// by n here, so all four are exact.
		if got != tc.want {
			t.Errorf("%s collective bytes = %d, want %d", tc.topo, got, tc.want)
		}
	}
}

func TestScalePayload(t *testing.T) {
	if got := ScalePayload(12345, 1); got != 12345 {
		t.Errorf("whole-payload scaling changed bytes: %d", got)
	}
	if got := ScalePayload(1000, 0.25); got != 250 {
		t.Errorf("quarter share = %d, want 250", got)
	}
	if got := ScalePayload(0, 0.5); got != 0 {
		t.Errorf("zero payload scaled to %d", got)
	}
}

func TestNewScheduleErrors(t *testing.T) {
	if _, err := NewSchedule(netParams(hw.TopoTree, 4), 0); err == nil {
		t.Error("zero chips accepted")
	}
	if _, err := NewSchedule(netParams(hw.TopoTree, 1), 8); err == nil {
		t.Error("group size 1 accepted for the tree")
	}
	if _, err := NewSchedule(netParams(hw.Topology(99), 4), 8); err == nil {
		t.Error("unknown topology accepted")
	}
	// Star and ring do not consult the group size.
	if _, err := NewSchedule(netParams(hw.TopoStar, 0), 8); err != nil {
		t.Errorf("star rejected irrelevant group size: %v", err)
	}
	if _, err := NewSchedule(netParams(hw.TopoRing, 0), 8); err != nil {
		t.Errorf("ring rejected irrelevant group size: %v", err)
	}
}

// BuildTree edge cases the tentpole refactor must preserve: single
// chip, chip counts that are not multiples of the group size, and the
// depth recurrence.
func TestBuildTreeEdgeCases(t *testing.T) {
	cases := []struct {
		n, g, depth int
	}{
		{1, 4, 0},
		{2, 4, 1},
		{4, 4, 1},
		{5, 4, 1},  // 5 -> 2 -> 1; chip 4 is its own leader, one hop to root
		{6, 4, 2},  // 6 -> 2 -> 1; 5 -> 4 -> 0
		{7, 2, 2},  // 7 -> 4 -> 2 -> 1; the lone trailing chip passes levels hop-free
		{9, 4, 2},  // 9 -> 3 -> 1
		{17, 4, 2}, // 17 -> 5 -> 2 -> 1; chip 16 leads itself until the last level
		{64, 8, 2}, // 64 -> 8 -> 1
	}
	for _, c := range cases {
		tr, err := BuildTree(c.n, c.g)
		if err != nil {
			t.Fatalf("n=%d g=%d: %v", c.n, c.g, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d g=%d: %v", c.n, c.g, err)
		}
		if got := tr.Depth(); got != c.depth {
			t.Errorf("n=%d g=%d depth = %d, want %d", c.n, c.g, got, c.depth)
		}
		if len(tr.ReduceHops()) != c.n-1 || len(tr.BroadcastHops()) != c.n-1 {
			t.Errorf("n=%d g=%d: hop counts not n-1", c.n, c.g)
		}
	}
}

// A corrupted schedule must fail validation: duplicated contribution,
// missing broadcast coverage, and out-of-order forwarding.
func TestScheduleValidateCatchesCorruption(t *testing.T) {
	sched, _ := NewSchedule(netParams(hw.TopoTree, 4), 8)
	dup := *sched
	dup.Reduce = append(append([]Hop{}, sched.Reduce...), Hop{From: 1, To: 0, Frac: 1, FromAccumulated: false, Class: hw.MIPI()})
	if err := dup.Validate(); err == nil {
		t.Error("double contribution not caught")
	}

	short := *sched
	short.Broadcast = sched.Broadcast[:len(sched.Broadcast)-1]
	if err := short.Validate(); err == nil {
		t.Error("unreached chip not caught")
	}

	reordered := *sched
	reordered.Broadcast = append([]Hop{}, sched.Broadcast...)
	last := len(reordered.Broadcast) - 1
	reordered.Broadcast[0], reordered.Broadcast[last] = reordered.Broadcast[last], reordered.Broadcast[0]
	// Swapping first and last hop of the 8-chip tree broadcast makes a
	// chip forward before it received.
	if err := reordered.Validate(); err == nil {
		t.Error("out-of-order broadcast not caught")
	}
}

// referenceValidate is the map-based fold Validate ran before it moved
// to bitsets, kept as the differential oracle: contrib[chip][chunk]
// counts how many times each original partial has been folded into an
// accumulator, one map per (chip, chunk). Validate must accept exactly
// the schedules this accepts.
func referenceValidate(s *Schedule) error {
	if s.N <= 0 || s.Chunks <= 0 {
		return fmt.Errorf("interconnect: schedule over %d chips / %d chunks", s.N, s.Chunks)
	}
	if s.Root < 0 || s.Root >= s.N {
		return fmt.Errorf("interconnect: root %d out of range", s.Root)
	}
	for _, h := range append(append([]Hop{}, s.Reduce...), s.Broadcast...) {
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
			return fmt.Errorf("interconnect: hop %d->%d crosses an undefined edge", h.From, h.To)
		}
	}
	contrib := make([][]map[int]int, s.N)
	for c := range contrib {
		contrib[c] = make([]map[int]int, s.Chunks)
		for q := range contrib[c] {
			contrib[c][q] = map[int]int{c: 1}
		}
	}
	for _, h := range s.Reduce {
		sent := map[int]int{h.From: 1}
		if h.FromAccumulated {
			sent = contrib[h.From][h.Chunk]
		}
		for chip, cnt := range sent {
			contrib[h.To][h.Chunk][chip] += cnt
		}
	}
	for _, f := range s.Final {
		if f.Chip < 0 || f.Chip >= s.N || f.Chunk < 0 || f.Chunk >= s.Chunks {
			return fmt.Errorf("interconnect: finalize (%d, chunk %d) out of range", f.Chip, f.Chunk)
		}
		if f.Frac <= 0 || f.Frac > 1 {
			return fmt.Errorf("interconnect: finalize fraction %g out of (0,1]", f.Frac)
		}
		for chip := 0; chip < s.N; chip++ {
			if got := contrib[f.Chip][f.Chunk][chip]; got != 1 {
				return fmt.Errorf("interconnect: chunk %d finalized on chip %d holds chip %d's partial %d times, want exactly once",
					f.Chunk, f.Chip, chip, got)
			}
		}
	}
	if len(s.Final) == 0 {
		return fmt.Errorf("interconnect: no finalizing chip")
	}
	has := make([][]bool, s.N)
	for c := range has {
		has[c] = make([]bool, s.Chunks)
	}
	for _, f := range s.Final {
		has[f.Chip][f.Chunk] = true
	}
	for _, h := range s.Broadcast {
		if !has[h.From][h.Chunk] {
			return fmt.Errorf("interconnect: broadcast hop %d->%d forwards chunk %d before receiving it",
				h.From, h.To, h.Chunk)
		}
		has[h.To][h.Chunk] = true
	}
	for c := 0; c < s.N; c++ {
		for q := 0; q < s.Chunks; q++ {
			if !has[c][q] {
				return fmt.Errorf("interconnect: chunk %d never reaches chip %d", q, c)
			}
		}
	}
	return nil
}

// agree fails the test when Validate and the reference fold disagree
// on whether s is a valid schedule, and returns whether it was.
func agree(t testing.TB, what string, s *Schedule) bool {
	t.Helper()
	got, want := s.Validate(), referenceValidate(s)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: Validate says %v, the reference fold says %v", what, got, want)
	}
	return got == nil
}

// Mutation kinds applied to a lowered schedule by mutate.
const (
	mutDropReduce = iota
	mutDupReduce
	mutSwapReduce
	mutToggleAccumulated
	mutRechunk
	mutDropFinal
	mutDupFinal
	mutRedirect
	mutDropBroadcast
	mutSwapBroadcast
	mutFrac
	mutUndefineClass
	numMutations
)

// mutate applies one mutation to s, whose hop and finalize lists it
// owns. a and b pick the positions (and, for re-chunking, redirecting
// and fractions, the new value, which may fall one past the valid
// range so the range checks are exercised too). A mutation with no
// list to act on does nothing.
func mutate(s *Schedule, kind int, a, b int) {
	pick := func(n, i int) int { return i % n }
	switch kind {
	case mutDropReduce:
		if n := len(s.Reduce); n > 0 {
			s.Reduce = slices.Delete(s.Reduce, pick(n, a), pick(n, a)+1)
		}
	case mutDupReduce:
		if n := len(s.Reduce); n > 0 {
			s.Reduce = slices.Insert(s.Reduce, pick(n+1, b), s.Reduce[pick(n, a)])
		}
	case mutSwapReduce:
		if n := len(s.Reduce); n > 0 {
			i, j := pick(n, a), pick(n, b)
			s.Reduce[i], s.Reduce[j] = s.Reduce[j], s.Reduce[i]
		}
	case mutToggleAccumulated:
		if n := len(s.Reduce); n > 0 {
			s.Reduce[pick(n, a)].FromAccumulated = !s.Reduce[pick(n, a)].FromAccumulated
		}
	case mutRechunk:
		if n := len(s.Reduce); n > 0 {
			s.Reduce[pick(n, a)].Chunk = pick(s.Chunks+1, b)
		}
	case mutDropFinal:
		if n := len(s.Final); n > 0 {
			s.Final = slices.Delete(s.Final, pick(n, a), pick(n, a)+1)
		}
	case mutDupFinal:
		if n := len(s.Final); n > 0 {
			s.Final = slices.Insert(s.Final, pick(n+1, b), s.Final[pick(n, a)])
		}
	case mutRedirect:
		if n := len(s.Reduce); n > 0 {
			s.Reduce[pick(n, a)].To = pick(s.N+1, b)
		}
	case mutDropBroadcast:
		if n := len(s.Broadcast); n > 0 {
			s.Broadcast = slices.Delete(s.Broadcast, pick(n, a), pick(n, a)+1)
		}
	case mutSwapBroadcast:
		if n := len(s.Broadcast); n > 0 {
			i, j := pick(n, a), pick(n, b)
			s.Broadcast[i], s.Broadcast[j] = s.Broadcast[j], s.Broadcast[i]
		}
	case mutFrac:
		if n := len(s.Reduce); n > 0 {
			s.Reduce[pick(n, a)].Frac = float64(b%160) / 128
		}
	case mutUndefineClass:
		if n := len(s.Broadcast); n > 0 {
			s.Broadcast[pick(n, a)].Class = hw.LinkClass{}
		}
	}
}

// owned returns a copy of s whose hop and finalize lists mutate may
// edit in place.
func owned(s *Schedule) *Schedule {
	c := *s
	c.Reduce = slices.Clone(s.Reduce)
	c.Broadcast = slices.Clone(s.Broadcast)
	c.Final = slices.Clone(s.Final)
	return &c
}

// Validate accepts every lowered schedule and agrees with the
// reference fold on it, for every topology, chip count 1..17, 32 and
// 64, and group size 2, 4 and 8.
func TestValidateMatchesReferenceLowered(t *testing.T) {
	ns := []int{32, 64}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	for _, topo := range hw.Topologies() {
		for _, n := range ns {
			for _, g := range []int{2, 4, 8} {
				sched, err := NewSchedule(netParams(topo, g), n)
				if err != nil {
					t.Fatal(err)
				}
				if !agree(t, fmt.Sprintf("%s n=%d g=%d", topo, n, g), sched) {
					t.Errorf("%s n=%d g=%d: lowered schedule rejected", topo, n, g)
				}
			}
		}
	}
}

// Validate agrees with the reference fold on seeded mutations of every
// lowered shape: dropped, duplicated and swapped reduce hops, toggled
// FromAccumulated, re-chunked and redirected hops, dropped and
// duplicated Finals, and broken broadcasts. Every mutation kind but a
// duplicated Final must produce at least one rejected schedule, so the
// agreement is not vacuous.
func TestValidateMatchesReferenceMutated(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 64))
	rejected := make([]int, numMutations)
	for _, topo := range hw.Topologies() {
		for _, n := range []int{2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 32} {
			for _, g := range []int{2, 4, 8} {
				base, err := NewSchedule(netParams(topo, g), n)
				if err != nil {
					t.Fatal(err)
				}
				for kind := 0; kind < numMutations; kind++ {
					for trial := 0; trial < 4; trial++ {
						s := owned(base)
						mutate(s, kind, rng.IntN(1<<16), rng.IntN(1<<16))
						if !agree(t, fmt.Sprintf("%s n=%d g=%d mutation %d", topo, n, g, kind), s) {
							rejected[kind]++
						}
						// A second mutation on top of the first.
						mutate(s, rng.IntN(numMutations), rng.IntN(1<<16), rng.IntN(1<<16))
						agree(t, fmt.Sprintf("%s n=%d g=%d mutation %d+", topo, n, g, kind), s)
					}
				}
			}
		}
	}
	for kind, r := range rejected {
		switch {
		case kind == mutDupFinal && r != 0:
			// A duplicated Final re-checks an accumulator that already
			// holds every partial once, so the fold accepts it, although
			// the root work on that chunk then runs twice. Pinned as
			// today's decision.
			t.Errorf("a duplicated Final was rejected %d times, want always accepted", r)
		case kind != mutDupFinal && r == 0:
			t.Errorf("mutation %d never produced a rejected schedule", kind)
		}
	}
}

// A double count in an accumulator that is never finalized (nor sent
// on afterwards) is accepted: only the finalized accumulators are
// required to hold each partial exactly once. This pins the decision
// the map-based fold made.
func TestValidateAcceptsUnfinalizedDoubleCount(t *testing.T) {
	tree, err := NewSchedule(netParams(hw.TopoTree, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	s := owned(tree)
	// Chip 2 is a leaf of the tree: it has already sent to its leader,
	// and nothing reads its accumulator again.
	extra := Hop{From: 1, To: 2, Frac: 1, Class: hw.MIPI()}
	s.Reduce = append(s.Reduce, extra, extra)
	if !agree(t, "tree with a double count on leaf 2", s) {
		t.Error("double count in an unfinalized accumulator rejected")
	}

	ring, err := NewSchedule(netParams(hw.TopoRing, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	s = owned(ring)
	// Chip 0 finalizes chunk 1; its chunk-0 accumulator has already
	// been forwarded.
	extra = Hop{From: 3, To: 0, Chunk: 0, Frac: ring.Reduce[0].Frac, FromAccumulated: true, Class: hw.MIPI()}
	s.Reduce = append(s.Reduce, extra, extra)
	if !agree(t, "ring with a double count on chip 0 chunk 0", s) {
		t.Error("double count in an unfinalized ring accumulator rejected")
	}
}

// FuzzScheduleValidate lowers a schedule picked by the first three
// bytes (topology, chips 1..17, group size 2..9), applies one mutation
// per following byte triple (kind, two positions), and requires that
// Validate never panics and accepts exactly what the reference fold
// accepts.
func FuzzScheduleValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		topos := hw.Topologies()
		topo := topos[int(data[0])%len(topos)]
		n := 1 + int(data[1])%17
		g := 2 + int(data[2])%8
		base, err := NewSchedule(netParams(topo, g), n)
		if err != nil {
			t.Fatal(err)
		}
		s := owned(base)
		for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
			mutate(s, int(rest[0])%numMutations, int(rest[1]), int(rest[2]))
		}
		agree(t, fmt.Sprintf("%s n=%d g=%d %x", topo, n, g, data), s)
	})
}

// BenchmarkScheduleValidate validates the 64-chip ring over the
// clustered network (4-chip clusters, 10x slower backhaul): 4,032
// reduce hops folded over 64 chunks.
func BenchmarkScheduleValidate(b *testing.B) {
	p := netParams(hw.TopoRing, 4)
	p.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	sched, err := NewSchedule(p, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
