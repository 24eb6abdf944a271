package perfsim

import (
	"reflect"
	"testing"
	"testing/quick"

	"mcudist/internal/collective"
	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// A device serializes its users FIFO: each usage queues behind the
// earlier ones.
func TestUseSerializesUsers(t *testing.T) {
	var free float64
	var spans [][2]float64
	for _, d := range []float64{10, 10, 10} {
		end := use(&free, 0, d)
		spans = append(spans, [2]float64{end - d, end})
	}
	want := [][2]float64{{0, 10}, {10, 20}, {20, 30}}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
}

// The free-at time tracks the end of the queue of usages.
func TestFreeAtTracksQueue(t *testing.T) {
	var free float64
	use(&free, 0, 10)
	use(&free, 0, 5)
	if free != 15 {
		t.Fatalf("free-at = %g, want 15", free)
	}
}

// A zero-duration usage ends where it starts and leaves the free-at
// time unchanged.
func TestZeroDurationUse(t *testing.T) {
	var free float64
	if end := use(&free, 0, 0); end != 0 || free != 0 {
		t.Fatalf("zero-duration use on an idle device ended at %g (free-at %g), want 0", end, free)
	}
	use(&free, 0, 30)
	if end := use(&free, 0, 0); end != 30 || free != 30 {
		t.Fatalf("zero-duration use ended at %g (free-at %g), want 30", end, free)
	}
}

// A usage never starts before its ready time, and a later usage queues
// behind an earlier one even when it was ready first.
func TestUseHonorsReadyTime(t *testing.T) {
	var free float64
	if end := use(&free, 100, 10); end != 110 {
		t.Fatalf("first use ended at %g, want 110", end)
	}
	if end := use(&free, 0, 10); end != 120 {
		t.Fatalf("second use ended at %g, want 120 (queued behind the first)", end)
	}
	if end := use(&free, 500, 5); end != 505 {
		t.Fatalf("idle-gap use ended at %g, want 505", end)
	}
}

// Property: for any ready times and durations, usage spans never
// overlap, none starts before its ready time, and the device's total
// busy time is the sum of the durations.
func TestPropertyUseNoOverlap(t *testing.T) {
	f := func(raw [][2]uint8) bool {
		var free, prevEnd, busy, total float64
		for _, r := range raw {
			ready, d := float64(r[0]), float64(r[1])
			end := use(&free, ready, d)
			start := end - d
			if start < prevEnd || start < ready {
				return false
			}
			busy += end - start
			total += d
			prevEnd = end
		}
		return busy == total && free == prevEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeUsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration accepted")
		}
	}()
	var free float64
	use(&free, 0, -1)
}

// arenaCase is one deployment the arena tests run.
type arenaCase struct {
	name     string
	strategy partition.Strategy
	chips    int
	topo     hw.Topology
	plan     collective.Plan
	mode     model.Mode
}

func (c arenaCase) deploy(t *testing.T) *deploy.Deployment {
	t.Helper()
	cfg := model.TinyLlamaScaled64()
	var p *partition.Plan
	var err error
	switch c.strategy {
	case partition.Pipeline:
		p, err = partition.NewPipeline(cfg, c.chips)
	case partition.Replicated:
		p, err = partition.NewReplicated(cfg, c.chips)
	default:
		p, err = partition.NewTensorParallel(cfg, c.chips)
	}
	if err != nil {
		t.Fatal(err)
	}
	hwp := hw.Siracusa()
	hwp.Topology = c.topo
	d, err := deploy.New(p, hwp, c.mode, model.PaperSeqLen(cfg, c.mode), deploy.Options{SyncPlan: c.plan})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A warm arena allocates only the Result it copies out: the Result
// itself, LinkClasses, PerChip, the two per-chip class-counter
// backings, ByClass and its per-link backing. The sync price tables
// live in the arena too, which the 64-chip ring over two link classes
// exercises.
func TestWarmRunAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	const resultAllocs = 7
	clustered := hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	for _, c := range []struct {
		n    int
		topo hw.Topology
	}{{8, hw.TopoTree}, {64, hw.TopoTree}, {64, hw.TopoRing}} {
		d := arenaCase{strategy: partition.TensorParallel, chips: c.n, topo: c.topo, mode: model.Autoregressive}.deploy(t)
		if c.topo == hw.TopoRing {
			d.HW.Network = clustered
		}
		s := NewSim()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Run(d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != resultAllocs {
			t.Errorf("%d chips %s: warm Sim.Run made %g allocations, want %d", c.n, c.topo, allocs, resultAllocs)
		}
	}
}

// One arena reused across shrinking and growing chip counts,
// topologies, collective plans and strategies reports exactly what a
// fresh arena reports for each run: no state leaks between runs.
func TestArenaReuseMatchesFreshArena(t *testing.T) {
	plan := collective.Plan{}.With(collective.DecodeMHSA, hw.TopoRing).With(collective.DecodeFFN, hw.TopoStar)
	cases := []arenaCase{
		{"tp64-tree", partition.TensorParallel, 64, hw.TopoTree, collective.Plan{}, model.Autoregressive},
		{"tp8-ring", partition.TensorParallel, 8, hw.TopoRing, collective.Plan{}, model.Autoregressive},
		{"tp8-plan", partition.TensorParallel, 8, hw.TopoTree, plan, model.Autoregressive},
		{"pipe8", partition.Pipeline, 8, hw.TopoTree, collective.Plan{}, model.Prompt},
		{"tp64-ring", partition.TensorParallel, 64, hw.TopoRing, collective.Plan{}, model.Prompt},
		{"tp64-plan", partition.TensorParallel, 64, hw.TopoTree, plan, model.Autoregressive},
		{"rep8", partition.Replicated, 8, hw.TopoTree, collective.Plan{}, model.Prompt},
		{"tp64-tree-again", partition.TensorParallel, 64, hw.TopoTree, collective.Plan{}, model.Autoregressive},
	}
	shared := NewSim()
	for _, c := range cases {
		d := c.deploy(t)
		got, err := shared.Run(d)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := NewSim().Run(d)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused arena result differs from a fresh arena's", c.name)
		}
	}
}
