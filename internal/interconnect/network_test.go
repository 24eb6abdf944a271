package interconnect

import (
	"strings"
	"testing"

	"mcudist/internal/hw"
)

// Every hop of a uniform-network schedule resolves to the one class,
// and Classes collapses to exactly that class — the invariant that
// keeps the uniform path byte-identical to the pre-refactor single
// hw.Link.
func TestAnnotateUniformSingleClass(t *testing.T) {
	for _, topo := range hw.Topologies() {
		sched, err := NewSchedule(netParams(topo, 4), 8)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if len(sched.Classes) != 1 || sched.Classes[0] != hw.MIPI() {
			t.Errorf("%s: classes = %+v, want exactly [MIPI]", topo, sched.Classes)
		}
		for _, h := range append(append([]Hop{}, sched.Reduce...), sched.Broadcast...) {
			if h.Class != hw.MIPI() {
				t.Errorf("%s: hop %d->%d class %+v, want MIPI", topo, h.From, h.To, h.Class)
			}
		}
	}
}

// Under the two-tier clustered network, hops inside a cluster carry
// the local class and hops crossing a cluster boundary the backhaul
// class, for every topology shape.
func TestAnnotateClusteredSplitsClasses(t *testing.T) {
	local := hw.MIPI()
	back := hw.MIPI().Slower(10)
	for _, topo := range hw.Topologies() {
		p := netParams(topo, 4)
		p.Network = hw.ClusteredNetwork(local, back, 4)
		sched, err := NewSchedule(p, 16)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		sawBackhaul := false
		for _, h := range append(append([]Hop{}, sched.Reduce...), sched.Broadcast...) {
			want := local
			if h.From/4 != h.To/4 {
				want = back
				sawBackhaul = true
			}
			if h.Class != want {
				t.Errorf("%s: hop %d->%d class %+v, want %+v", topo, h.From, h.To, h.Class, want)
			}
		}
		if !sawBackhaul {
			t.Errorf("%s: 16 chips in clusters of 4 produced no backhaul hop", topo)
		}
		if len(sched.Classes) != 2 {
			t.Errorf("%s: classes = %+v, want [local backhaul]", topo, sched.Classes)
		}
	}
}

// A per-edge table that wires only the ring must lower the ring but
// reject any topology routing over unwired pairs — the "hops over
// undefined edges" rejection, surfaced at lowering time.
func TestTableNetworkRejectsUnwiredTopology(t *testing.T) {
	const n = 4
	edges := map[hw.Edge]hw.LinkClass{}
	for i := 0; i < n; i++ {
		edges[hw.Edge{From: i, To: (i + 1) % n}] = hw.MIPI()
	}
	ringOnly, err := hw.TableNetwork(edges)
	if err != nil {
		t.Fatal(err)
	}

	p := netParams(hw.TopoRing, 4)
	p.Network = ringOnly
	sched, err := NewSchedule(p, n)
	if err != nil {
		t.Fatalf("ring over a ring-wired table: %v", err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	p.Topology = hw.TopoFullyConnected
	if _, err := NewSchedule(p, n); err == nil {
		t.Fatal("fully-connected lowered over a ring-wired table")
	} else if !strings.Contains(err.Error(), "not wired") {
		t.Errorf("error does not name the unwired edge: %v", err)
	}

	// The tree reduces 1->0, 2->0, 3->0: only 1->0 is (implicitly
	// absent) — every tree hop except ring-adjacent ones is unwired.
	p.Topology = hw.TopoTree
	if _, err := NewSchedule(p, n); err == nil {
		t.Fatal("tree lowered over a ring-wired table")
	}
}

// Validate must reject a hop whose class was never resolved (the
// undefined-edge marker), independently of how the schedule was built.
func TestValidateRejectsUndefinedEdge(t *testing.T) {
	sched, err := NewSchedule(netParams(hw.TopoTree, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := *sched
	corrupt.Reduce = append([]Hop{}, sched.Reduce...)
	corrupt.Reduce[2].Class = hw.LinkClass{}
	if err := corrupt.Validate(); err == nil {
		t.Fatal("hop with an undefined link class validated")
	} else if !strings.Contains(err.Error(), "undefined edge") {
		t.Errorf("error does not name the undefined edge: %v", err)
	}
}

// Every annotated hop carries the index of its own class in the
// schedule's Classes, which the simulator keys its prices on.
func TestHopClassIdxIndexesClasses(t *testing.T) {
	for _, topo := range hw.Topologies() {
		p := netParams(topo, 4)
		p.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
		sched, err := NewSchedule(p, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Classes) != 2 {
			t.Fatalf("%s: %d classes on the clustered network, want 2", topo, len(sched.Classes))
		}
		for _, h := range append(append([]Hop{}, sched.Reduce...), sched.Broadcast...) {
			if h.ClassIdx < 0 || h.ClassIdx >= len(sched.Classes) || sched.Classes[h.ClassIdx] != h.Class {
				t.Fatalf("%s: hop %d->%d has class index %d for %+v in %+v", topo, h.From, h.To, h.ClassIdx, h.Class, sched.Classes)
			}
		}
	}
}
