package explore

import (
	"fmt"
	"math"
	"sort"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
)

// This file is the predict-then-verify core every search in the
// package is spelled on. A search names its candidates in the one
// canonical order (odometer), ranks its predictions with the one
// stable top-K (rankByCost), verifies the chosen set through the one
// deduplicated evaluator (evalSet, evalCands), and reduces the
// verified set with the shared reductions (argmin, paretoMask,
// concordance). Searches differ only in their candidate spelling and
// the reduction they apply.

// odometer enumerates every k-digit base-n index tuple, first digit
// cycling fastest. It is the canonical candidate order of every plan
// search, so ties resolve identically everywhere and the paper's tree
// (index 0) wins exact draws.
func odometer(k, n int) [][]int {
	var out [][]int
	idx := make([]int, k)
	for {
		out = append(out, append([]int(nil), idx...))
		j := 0
		for ; j < k; j++ {
			idx[j]++
			if idx[j] < n {
				break
			}
			idx[j] = 0
		}
		if j == k {
			return out
		}
	}
}

// allSameIndex is the odometer index of the tuple binding every one
// of k digits to ti: ti summed over every digit's place value.
func allSameIndex(ti, k, n int) int {
	idx, place := 0, 1
	for d := 0; d < k; d++ {
		idx += ti * place
		place *= n
	}
	return idx
}

// bind spells an odometer tuple as a plan binding classes[i] to
// topos[idx[i]].
func bind(classes []collective.SyncClass, topos []hw.Topology, idx []int) collective.Plan {
	var p collective.Plan
	for i, c := range classes {
		p = p.With(c, topos[idx[i]])
	}
	return p
}

// planGrid spells the whole odometer over classes × topos as bound
// plans.
func planGrid(classes []collective.SyncClass, topos []hw.Topology) []collective.Plan {
	cands := odometer(len(classes), len(topos))
	plans := make([]collective.Plan, len(cands))
	for i, idx := range cands {
		plans[i] = bind(classes, topos, idx)
	}
	return plans
}

// perClass lists the plan's explicit choice per class, in class order.
func perClass(p collective.Plan, classes []collective.SyncClass) []ClassChoice {
	out := make([]ClassChoice, len(classes))
	for i, c := range classes {
		topo, _ := p.Explicit(c)
		out[i] = ClassChoice{Class: c, Topology: topo}
	}
	return out
}

// topoIndex locates t in topos, or -1.
func topoIndex(topos []hw.Topology, t hw.Topology) int {
	for i, tt := range topos {
		if tt == t {
			return i
		}
	}
	return -1
}

// indices returns 0, 1, ..., n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// rankByCost returns indices ordered by cost ascending (stable, ties
// keep index order), capped to limit when limit > 0.
func rankByCost(cost []float64, limit int) []int {
	order := indices(len(cost))
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] < cost[order[b]] })
	if limit > 0 && limit < len(order) {
		order = order[:limit]
	}
	return order
}

// argmin returns the first index in [0, n) minimizing val, or -1 when
// n is 0. Callers order their candidates so that the first minimum is
// the tie-break they want.
func argmin(n int, val func(int) float64) int {
	best, bestVal := -1, 0.0
	for i := 0; i < n; i++ {
		if v := val(i); best < 0 || v < bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

// evalSet collects evaluation points with deduplication, so one
// evalpool.Map call serves every distinct configuration of a stage.
// The zero value is ready to use.
type evalSet struct {
	points []evalpool.Point
	index  map[evalpool.Point]int
}

// add registers pt and returns its index into run's reports.
func (e *evalSet) add(pt evalpool.Point) int {
	if i, ok := e.index[pt]; ok {
		return i
	}
	if e.index == nil {
		e.index = map[evalpool.Point]int{}
	}
	i := len(e.points)
	e.points = append(e.points, pt)
	e.index[pt] = i
	return i
}

// run evaluates every registered point; what names the stage in the
// error.
func (e *evalSet) run(what string) ([]*core.Report, error) {
	reports, err := evalpool.Map(e.points)
	if err != nil {
		return nil, fmt.Errorf("explore: %s: %w", what, err)
	}
	return reports, nil
}

// sessionModePoint spells one phase's exact evaluation of a plan with
// only the phase's own classes bound. All of the phase's classes on
// one topology collapse to the zero-plan + run-topology spelling,
// sharing cache entries with the uniform baselines and the plain
// run-topology sweeps; mixed tuples bind the phase's classes
// explicitly. The base system's own SyncPlan is overridden either way.
func sessionModePoint(base core.System, m sessionMode, plan collective.Plan) evalpool.Point {
	sys := base
	t0, _ := plan.Explicit(m.classes[0])
	var p collective.Plan
	same := true
	for _, c := range m.classes {
		t, _ := plan.Explicit(c)
		p = p.With(c, t)
		same = same && t == t0
	}
	if same {
		sys.Options.SyncPlan = collective.Plan{}
		sys.HW.Topology = t0
	} else {
		sys.Options.SyncPlan = p
	}
	return evalpool.Point{System: sys, Workload: m.wl}
}

// evalCands evaluates each plan exactly over the given phases and
// returns one VerifiedPlan per plan, in input order, with the
// predictions left for the caller. The phase-restricted spelling
// (deployed false) evaluates each phase through sessionModePoint, so
// probe and uniform configurations are served from the cache tiers.
// The as-deployed spelling (deployed true) rides the full plan in
// every phase's cache key, which is exactly how a user runs the plan;
// phase results that cannot depend on the other phase's bindings then
// still occupy distinct cache entries.
func evalCands(base core.System, modes []sessionMode, plans []collective.Plan, deployed bool, what string) ([]VerifiedPlan, error) {
	var ev evalSet
	ids := make([]int, len(plans)*len(modes))
	for i, p := range plans {
		for mi, m := range modes {
			var pt evalpool.Point
			if deployed {
				sys := base
				sys.Options.SyncPlan = p
				pt = evalpool.Point{System: sys, Workload: m.wl}
			} else {
				pt = sessionModePoint(base, m, p)
			}
			ids[i*len(modes)+mi] = ev.add(pt)
		}
	}
	reports, err := ev.run(what)
	if err != nil {
		return nil, err
	}
	out := make([]VerifiedPlan, len(plans))
	for i, p := range plans {
		reps := ids[i*len(modes) : (i+1)*len(modes)]
		vp := VerifiedPlan{
			Plan:          p,
			PrefillReport: reports[reps[0]],
			DecodeReport:  reports[reps[len(reps)-1]],
		}
		for _, id := range reps {
			vp.Cycles += reports[id].Cycles
			vp.Seconds += reports[id].Seconds
			vp.Joules += reports[id].Energy.Total()
		}
		out[i] = vp
	}
	return out, nil
}

// paretoMask flags points not dominated in (seconds, joules): a point
// is dominated when another is no worse on both axes and strictly
// better on at least one; exact duplicates do not dominate each other,
// so both stay on the front.
//
// Single pass over a latency-sorted order instead of the O(n²)
// all-pairs scan: with points sorted by latency, a point can only be
// dominated by the minimum energy seen at strictly lower latency, or
// by a strictly lower energy at equal latency.
func paretoMask(secs, joules []float64) []bool {
	pareto := make([]bool, len(secs))
	order := make([]int, len(secs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if secs[order[a]] != secs[order[b]] {
			return secs[order[a]] < secs[order[b]]
		}
		return joules[order[a]] < joules[order[b]]
	})
	bestEnergy := math.Inf(1) // min energy among strictly faster points
	for g := 0; g < len(order); {
		// One group of equal-latency points; within it only a strictly
		// lower energy dominates, so the group minimum survives
		// (duplicates of the minimum included).
		sec := secs[order[g]]
		end := g
		groupMin := math.Inf(1)
		for ; end < len(order) && secs[order[end]] == sec; end++ {
			if e := joules[order[end]]; e < groupMin {
				groupMin = e
			}
		}
		for ; g < end; g++ {
			e := joules[order[g]]
			pareto[order[g]] = bestEnergy > e && groupMin >= e
		}
		if groupMin < bestEnergy {
			bestEnergy = groupMin
		}
	}
	return pareto
}

// concordance is the predictor's pairwise ordering accuracy over a
// verified set: exact holds the exact costs in predicted order, and
// the result is the fraction of pairs the prediction ordered
// consistently (exact ties count as concordant; 1 for fewer than two).
func concordance(exact []float64) float64 {
	if len(exact) < 2 {
		return 1
	}
	pairs, ok := 0, 0
	for i := range exact {
		for j := i + 1; j < len(exact); j++ {
			pairs++
			if exact[i] <= exact[j] {
				ok++
			}
		}
	}
	return float64(ok) / float64(pairs)
}
