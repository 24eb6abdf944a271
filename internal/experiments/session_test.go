package experiments

import "testing"

// TestSessionAutotune pins the joint-session autotuning study's
// findings: per-sync planning pays exactly where the phase regimes
// diverge (the 64-chip hybrid), collapses to the best uniform shape
// where they don't (8 chips on both networks — including the
// clustered flip to fully-connected, the best-uniform-shape finding
// holding jointly across both phases), and the predict-then-verify
// search stays >= 5x under the naive joint grid everywhere.
func TestSessionAutotune(t *testing.T) {
	rows, err := SessionAutotune()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 chip counts x 2 networks)", len(rows))
	}
	find := func(chips int, network string) SessionRow {
		for _, r := range rows {
			if r.Chips == chips && r.Network == network {
				return r
			}
		}
		t.Fatalf("no row for %d chips on %s", chips, network)
		return SessionRow{}
	}

	u8 := find(8, "uniform")
	if u8.Plan != "prefill=ring,decode=ring" || u8.BestUniform != "ring" || u8.Margin != 1 {
		t.Errorf("8-chip uniform: %s (best uniform %s, margin %g), want the uniform ring at margin 1",
			u8.Plan, u8.BestUniform, u8.Margin)
	}

	c8 := find(8, "clustered-4x10")
	if c8.Plan != "prefill=fully-connected,decode=fully-connected" ||
		c8.BestUniform != "fully-connected" || c8.Margin != 1 {
		t.Errorf("8-chip clustered: %s (best uniform %s, margin %g), want fully-connected sweeping both phases at margin 1",
			c8.Plan, c8.BestUniform, c8.Margin)
	}

	u64 := find(64, "uniform")
	if u64.Plan != "prefill=ring,decode=tree" || u64.BestUniform != "ring" {
		t.Errorf("64-chip uniform: %s over best uniform %s, want prefill=ring,decode=tree over ring",
			u64.Plan, u64.BestUniform)
	}
	if u64.Margin < 1.25 {
		t.Errorf("64-chip uniform margin %g, want > 1.25", u64.Margin)
	}

	c64 := find(64, "clustered-4x10")
	if c64.Plan != "prefill=ring,decode=tree" {
		t.Errorf("64-chip clustered: %s, want the hybrid to survive the backhaul", c64.Plan)
	}
	if c64.Margin <= 1.02 || c64.Margin >= u64.Margin {
		t.Errorf("64-chip clustered margin %g, want a real but narrower win than uniform's %g",
			c64.Margin, u64.Margin)
	}

	for _, r := range rows {
		if r.Margin < 1 {
			t.Errorf("%d/%s: margin %g < 1", r.Chips, r.Network, r.Margin)
		}
		if r.RankAccuracy < 0.7 {
			t.Errorf("%d/%s: rank accuracy %g < 0.7", r.Chips, r.Network, r.RankAccuracy)
		}
		if r.GridSims != 512 {
			t.Errorf("%d/%s: joint grid %d sims, want 512", r.Chips, r.Network, r.GridSims)
		}
		if 5*r.ExactSims > r.GridSims {
			t.Errorf("%d/%s: %d exact sims over a %d-sim grid, want >= 5x fewer",
				r.Chips, r.Network, r.ExactSims, r.GridSims)
		}
		if r.Cycles <= 0 || r.UniformCycles < r.Cycles {
			t.Errorf("%d/%s: cycles %g / uniform %g inconsistent", r.Chips, r.Network, r.Cycles, r.UniformCycles)
		}
	}
}
