package explore

import (
	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/hw"
)

// Surrogate is the per-class additive cost model behind every
// surrogate-first search in this package, extracted from
// AutotuneSession (where PR 5 proved the structure: 20 probe
// simulations steer a 512-simulation grid to the provably identical
// winner). Fitting runs one probe simulation per (phase, class,
// topology) — the four uniform sessions plus every single-deviation
// binding — and the fitted model predicts any joint plan's session
// cycles and energy by composing the measured deltas additively, in
// microseconds instead of simulations. Predictions only ever decide
// what to verify: every consumer (AutotuneSession, PlanFrontier)
// re-evaluates its predicted winners exactly and decides on exact
// numbers.
//
// The single-deviation probes make the prediction exact whenever at
// most one class per phase leaves the reference topology; the residual
// is the within-phase interaction of simultaneously rebound classes,
// which the verification pass absorbs. All probe points flow through
// the shared evalpool tiers, so a store-backed process fits the
// surrogate without simulating at all.
type Surrogate struct {
	modes []sessionMode
	pos   map[collective.SyncClass]int // union class -> candidate index position

	// Per-phase all-reference baselines and per (phase, class,
	// topology) measured deltas, one entry per objective. The energy
	// model reads the same probe reports the cycle model does — the
	// second objective is free.
	base  [][numObjectives]float64
	delta []map[collective.SyncClass][][numObjectives]float64

	costs []ClassCost
}

// The surrogate's objectives, indexing its baselines, deltas and
// predictions.
const (
	objCycles = iota
	objSeconds
	objJoules
	numObjectives
)

// objectives reads a report's cost on every objective.
func objectives(rep *core.Report) [numObjectives]float64 {
	return [numObjectives]float64{rep.Cycles, rep.Seconds, rep.Energy.Total()}
}

// fitSurrogate runs the probe simulations — the uniform sessions (the
// margin baselines need them anyway) and one single-deviation probe
// per (phase, class, non-reference topology) — and assembles the
// model.
func fitSurrogate(base core.System, modes []sessionMode, union []collective.SyncClass, topos []hw.Topology, refIdx int) (*Surrogate, error) {
	ref := topos[refIdx]
	same := func(t hw.Topology) collective.Plan {
		var p collective.Plan
		for _, c := range union {
			p = p.With(c, t)
		}
		return p
	}
	var ev evalSet
	uniform := make([][]int, len(modes))
	type probeRef struct {
		mode  int
		class collective.SyncClass
		topo  int
		point int
	}
	var probes []probeRef
	for mi, m := range modes {
		uniform[mi] = make([]int, len(topos))
		for ti, t := range topos {
			uniform[mi][ti] = ev.add(sessionModePoint(base, m, same(t)))
		}
		for _, c := range m.classes {
			for ti, t := range topos {
				if ti == refIdx {
					continue
				}
				pt := ev.add(sessionModePoint(base, m, same(ref).With(c, t)))
				probes = append(probes, probeRef{mode: mi, class: c, topo: ti, point: pt})
			}
		}
	}
	reports, err := ev.run("surrogate probes")
	if err != nil {
		return nil, err
	}
	s := &Surrogate{
		modes: modes,
		pos:   make(map[collective.SyncClass]int, len(union)),
		base:  make([][numObjectives]float64, len(modes)),
		delta: make([]map[collective.SyncClass][][numObjectives]float64, len(modes)),
	}
	for i, c := range union {
		s.pos[c] = i
	}
	classC2C := func(rep *core.Report, c collective.SyncClass) float64 {
		for _, cs := range rep.ByClass {
			if cs.Class == c {
				return cs.C2CCycles
			}
		}
		return 0
	}
	for mi, m := range modes {
		refRep := reports[uniform[mi][refIdx]]
		s.base[mi] = objectives(refRep)
		s.delta[mi] = map[collective.SyncClass][][numObjectives]float64{}
		for _, c := range m.classes {
			s.delta[mi][c] = make([][numObjectives]float64, len(topos))
			s.costs = append(s.costs, ClassCost{
				Mode:      m.wl.Mode,
				Class:     c,
				Topology:  ref,
				C2CCycles: classC2C(refRep, c),
			})
		}
	}
	for _, pr := range probes {
		rep := reports[pr.point]
		d := &s.delta[pr.mode][pr.class][pr.topo]
		for o, v := range objectives(rep) {
			d[o] = v - s.base[pr.mode][o]
		}
		s.costs = append(s.costs, ClassCost{
			Mode:        modes[pr.mode].wl.Mode,
			Class:       pr.class,
			Topology:    topos[pr.topo],
			DeltaCycles: d[objCycles],
			C2CCycles:   classC2C(rep, pr.class),
		})
	}
	return s, nil
}

// predict composes every objective of a candidate, given as
// per-union-class topology indices: per phase, the all-reference
// baseline plus each class's measured delta, summed over the phases.
func (s *Surrogate) predict(idx []int) [numObjectives]float64 {
	var total [numObjectives]float64
	for mi, m := range s.modes {
		for o := range total {
			v := s.base[mi][o]
			for _, c := range m.classes {
				v += s.delta[mi][c][idx[s.pos[c]]][o]
			}
			total[o] += v
		}
	}
	return total
}

// VerifiedPlan is one exactly-evaluated joint plan next to what the
// surrogate predicted for it.
type VerifiedPlan struct {
	Plan             collective.Plan
	PredictedCycles  float64
	PredictedSeconds float64
	PredictedJoules  float64
	// Cycles / Seconds / Joules are the exact whole-session costs
	// (prompt prefill plus one decode step).
	Cycles  float64
	Seconds float64
	Joules  float64
	// PrefillReport / DecodeReport are the two exact phase
	// evaluations.
	PrefillReport *core.Report
	DecodeReport  *core.Report
}
