package main

import (
	"testing"

	"mcudist/internal/core"
)

// TestSweepPassesMatchReference runs untraced and traced sweep-cold
// passes on a slice of the point set: both must reproduce the serial
// references and the exact counts.
func TestSweepPassesMatchReference(t *testing.T) {
	w := newSweepCold(3, t.TempDir(), 2).(*sweepCold)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.pts, w.ref = w.pts[:40], w.ref[:40]
	w.cycles, w.joules = 0, 0
	for _, p := range w.pts {
		rep, err := core.Run(p.sys, p.wl)
		if err != nil {
			t.Fatal(err)
		}
		w.cycles += rep.Cycles
		w.joules += rep.Energy.Total()
	}
	plain, err := w.run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := w.run(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []pass{plain, traced} {
		if p.failed != 0 || p.ops != 41 {
			t.Errorf("pass failed %d of %d operations", p.failed, p.ops)
		}
	}
	for _, k := range []string{"interconnect.lowerings", "resultstore.appends", "perfsim.sim_cycles_sum"} {
		if plain.counts[k] != traced.counts[k] {
			t.Errorf("%s: untraced %v, traced %v", k, plain.counts[k], traced.counts[k])
		}
	}
	if plain.counts["evalpool.sims"] != 40 {
		t.Errorf("evalpool.sims = %v, want 40", plain.counts["evalpool.sims"])
	}
	busy, _ := busyAndSelf(tr.spans)
	for _, layer := range []string{"deploy", "interconnect", "perfsim", "energy", "resultstore.append"} {
		if busy[layer] <= 0 {
			t.Errorf("no time traced in %s", layer)
		}
	}
}
