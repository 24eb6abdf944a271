package explore

import (
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/model"
)

func TestLegalChipCounts(t *testing.T) {
	cfg := model.TinyLlama42M() // 8 heads
	counts := LegalChipCounts(cfg, 100)
	if len(counts) != 8 || counts[0] != 1 || counts[7] != 8 {
		t.Fatalf("counts = %v", counts)
	}
	counts = LegalChipCounts(cfg, 4)
	if len(counts) != 4 {
		t.Fatalf("capped counts = %v", counts)
	}
	gqa := model.SmolLM135M() // 3 KV heads
	counts = LegalChipCounts(gqa, 100)
	if len(counts) != 3 {
		t.Fatalf("GQA counts = %v, want 1..3", counts)
	}
}

func TestMinChipsOffChipFree(t *testing.T) {
	// The paper sweeps powers of two and reports the crossover at 8
	// chips; exploring every chip count shows TinyLlama already
	// double-buffers at 5 (uneven head split, 1.6 heads/chip worth of
	// weights) — a finding the power-of-two grid hides.
	pt, err := MinChipsOffChipFree(core.DefaultSystem(1),
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Chips != 5 {
		t.Fatalf("min chips = %d, want 5", pt.Chips)
	}
	if !pt.Report.Tier.OffChipFree() {
		t.Fatal("returned point is not off-chip free")
	}
	// MobileBERT crosses at 4 even over the full grid (3 chips leave
	// a 512 KiB slice that cannot double-buffer).
	pt, err = MinChipsOffChipFree(core.DefaultSystem(1),
		core.Workload{Model: model.MobileBERT512(), Mode: model.Prompt}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Chips != 4 {
		t.Fatalf("MobileBERT min chips = %d, want 4", pt.Chips)
	}
}

func TestMinChipsUnreachable(t *testing.T) {
	// TinyLlama cannot go off-chip free with at most 4 chips.
	_, err := MinChipsOffChipFree(core.DefaultSystem(1),
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}, 4)
	if err == nil {
		t.Fatal("expected an error")
	}
}

func TestFrontierAndPareto(t *testing.T) {
	points, err := Frontier(core.DefaultSystem(1),
		core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive},
		[]int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// 8 chips dominates on latency and roughly ties on energy — it
	// must be on the front; 1 chip is dominated by 8 (slower AND not
	// cheaper).
	var p1, p8 *Point
	for i := range points {
		switch points[i].Chips {
		case 1:
			p1 = &points[i]
		case 8:
			p8 = &points[i]
		}
	}
	if !p8.Pareto {
		t.Fatal("8-chip point should be Pareto-optimal")
	}
	if p1.Pareto {
		t.Fatal("1-chip point should be dominated (slower and more energy)")
	}
	// No flagged point may be dominated by another on both axes.
	for _, p := range points {
		if !p.Pareto {
			continue
		}
		for _, q := range points {
			if q.Report.Seconds < p.Report.Seconds &&
				q.Report.Energy.Total() < p.Report.Energy.Total() {
				t.Fatalf("%d chips flagged Pareto but dominated by %d chips", p.Chips, q.Chips)
			}
		}
	}
}

// paretoPoints fabricates a point set from (latency, energy) pairs;
// energy is placed entirely in the compute term.
func paretoPoints(latEnergy [][2]float64) []Point {
	out := make([]Point, len(latEnergy))
	for i, le := range latEnergy {
		rep := &core.Report{Seconds: le[0]}
		rep.Energy.Compute = le[1]
		out[i] = Point{Chips: i + 1, Report: rep}
	}
	return out
}

// markPareto flags points not dominated in (latency, energy) through
// the package's paretoMask.
func markPareto(points []Point) {
	secs := make([]float64, len(points))
	joules := make([]float64, len(points))
	for i, p := range points {
		secs[i], joules[i] = p.Report.Seconds, p.Report.Energy.Total()
	}
	for i, p := range paretoMask(secs, joules) {
		points[i].Pareto = p
	}
}

// markParetoReference is the original all-pairs domination scan, kept
// as the semantic oracle for the sorted single-pass implementation.
func markParetoReference(points []Point) {
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			betterOrEqual := points[j].Report.Seconds <= points[i].Report.Seconds &&
				points[j].Report.Energy.Total() <= points[i].Report.Energy.Total()
			strictlyBetter := points[j].Report.Seconds < points[i].Report.Seconds ||
				points[j].Report.Energy.Total() < points[i].Report.Energy.Total()
			if betterOrEqual && strictlyBetter {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
}

func TestMarkParetoMatchesReference(t *testing.T) {
	cases := map[string][][2]float64{
		"empty":          {},
		"single":         {{1, 1}},
		"chain":          {{4, 1}, {3, 2}, {2, 3}, {1, 4}},
		"dominated":      {{1, 1}, {2, 2}, {3, 3}},
		"duplicates":     {{1, 1}, {1, 1}, {2, 0.5}, {2, 0.5}},
		"equal-latency":  {{1, 3}, {1, 2}, {1, 2}, {1, 4}},
		"equal-energy":   {{3, 1}, {2, 1}, {4, 1}, {2, 1}},
		"mixed-ties":     {{1, 5}, {2, 5}, {2, 4}, {3, 4}, {3, 3}, {1, 5}},
		"unsorted-input": {{5, 1}, {1, 5}, {3, 3}, {2, 3}, {3, 2}, {4, 4}},
	}
	for name, le := range cases {
		t.Run(name, func(t *testing.T) {
			got := paretoPoints(le)
			want := paretoPoints(le)
			markPareto(got)
			markParetoReference(want)
			for i := range got {
				if got[i].Pareto != want[i].Pareto {
					t.Errorf("point %d (lat=%g, energy=%g): Pareto=%v, reference says %v",
						i, le[i][0], le[i][1], got[i].Pareto, want[i].Pareto)
				}
				if got[i].Chips != want[i].Chips {
					t.Errorf("point %d: input order disturbed", i)
				}
			}
		})
	}
}
