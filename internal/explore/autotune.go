package explore

import (
	"fmt"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/hw"
)

// ClassChoice is one per-class decision of an autotuned collective
// plan.
type ClassChoice struct {
	Class    collective.SyncClass
	Topology hw.Topology
}

// AutotuneResult is the outcome of a per-sync plan autotuning.
type AutotuneResult struct {
	// Plan binds the winning topology to every synchronization class
	// the workload executes; other classes stay unbound.
	Plan collective.Plan
	// Report is the winning plan's evaluation.
	Report *core.Report
	// PerClass lists the winning choice per active class, in class
	// order — the "per-class winner table".
	PerClass []ClassChoice
	// BestUniform is the best single-topology configuration of the
	// same system, with its report — the baseline a mixed plan has to
	// beat.
	BestUniform   hw.Topology
	UniformReport *core.Report
	// Margin is UniformReport.Cycles / Report.Cycles: how much the
	// per-sync plan buys over the best run-wide topology (>= 1; 1
	// means the best plan is a uniform one).
	Margin float64
}

// AutotunePlan exhaustively enumerates the class × topology grid for
// the synchronization classes the workload executes (two per strategy
// and mode, so topologies^2 candidates — 16 on the four stock shapes)
// and returns the winning plan with its margin over the best uniform
// topology. It is the one-phase case of the session enumerator: every
// candidate is spelled phase-restricted, so the all-same tuples
// collapse onto the zero-plan run-topology points and share their
// simulation with the uniform baselines and the plain sweeps. The
// enumeration covers only active classes, so the grid stays small and
// every evaluated point is a genuine behavioral variant. Ties keep the earliest candidate in odometer order, so the
// paper's tree wins exact draws.
func AutotunePlan(base core.System, wl core.Workload) (*AutotuneResult, error) {
	classes := collective.ActiveClasses(base.Strategy, wl.Mode)
	if len(classes) == 0 {
		return nil, fmt.Errorf("explore: the %s strategy executes no collective synchronizations to plan", base.Strategy)
	}
	topos := hw.Topologies()
	plans := planGrid(classes, topos)
	phase := []sessionMode{{wl: wl, classes: classes}}
	verified, err := evalCands(base, phase, plans, false, "autotune")
	if err != nil {
		return nil, err
	}
	uniform := func(ti int) int { return allSameIndex(ti, len(classes), len(topos)) }
	best := argmin(len(verified), func(i int) float64 { return verified[i].Cycles })
	uni := argmin(len(topos), func(ti int) float64 { return verified[uniform(ti)].Cycles })
	res := &AutotuneResult{
		Plan:          plans[best],
		Report:        verified[best].PrefillReport,
		PerClass:      perClass(plans[best], classes),
		BestUniform:   topos[uni],
		UniformReport: verified[uniform(uni)].PrefillReport,
	}
	res.Margin = res.UniformReport.Cycles / res.Report.Cycles
	return res, nil
}
