package explore

import (
	"fmt"
	"slices"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// This file autotunes a whole generation session — one prompt prefill
// plus one autoregressive decode step — jointly over the full
// class × topology grid. The joint grid is topologies^|classes|
// candidates (256 for the tensor-parallel scheme's four session
// classes), and evaluating each candidate as deployed costs two
// simulations, so exhaustive enumeration runs ~2·4^4 exact simulations
// per operating point — and multiplies again under a network-profile
// axis. AutotuneSession makes that tractable with a predict-then-verify
// structure: the shared Surrogate (surrogate.go) — a per-class cost
// decomposition built from one probe simulation per (class, topology) —
// predicts every candidate's session cost additively in microseconds,
// and only the predicted top-K candidates (plus the four uniform
// sessions, which the margin needs anyway) are verified with exact
// simulations. The exact simulator stays the ground truth: the winner
// is always chosen on verified cycles, never on predictions.

// DefaultSessionTopK is the number of predicted-best candidates
// AutotuneSession verifies exactly when SessionOptions.TopK is zero.
const DefaultSessionTopK = 8

// SessionOptions tunes AutotuneSession.
type SessionOptions struct {
	// TopK is the number of predicted-best joint candidates to verify
	// with exact simulations (the pruning knob; 0 selects
	// DefaultSessionTopK). The four uniform sessions are always
	// verified in addition — the margin baseline needs them — so the
	// winner can never lose to a uniform plan.
	TopK int
	// Exhaustive disables the predictor and evaluates every joint
	// candidate exactly, as deployed (the merged plan rides in both
	// phases' cache keys). This is the ground-truth reference the
	// equivalence tests hold the pruned search to; it costs
	// 2·topologies^|classes| simulations.
	Exhaustive bool
	// PromptSeqLen / DecodeSeqLen override the two phases' sequence
	// lengths (0 selects the paper's value for the model and mode,
	// matching the PR 4 session ablation).
	PromptSeqLen int
	DecodeSeqLen int
}

// SessionCandidate is one exactly-verified joint candidate: its plan,
// the predictor's estimate, and the exact session cycles.
type SessionCandidate struct {
	Plan            collective.Plan
	PredictedCycles float64
	Cycles          float64
}

// ClassCost is one entry of the predictor's per-class cost vector: the
// measured session-cycle delta of binding Class to Topology instead of
// the reference topology, with every other class held at the
// reference — one probe simulation per entry, composable additively
// across classes and phases.
type ClassCost struct {
	// Mode is the phase the probe ran in (the class's own phase for
	// the tensor-parallel classes; the replicated exchanges execute in
	// both phases and get one entry per phase).
	Mode model.Mode
	// Class and Topology name the binding the probe measured.
	Class    collective.SyncClass
	Topology hw.Topology
	// DeltaCycles is probe cycles minus the all-reference baseline's
	// cycles for the phase (0 for the reference topology itself).
	DeltaCycles float64
	// C2CCycles is the class's link busy time in the probe — the
	// ByClass attribution the decomposition rests on.
	C2CCycles float64
}

// SessionResult is the outcome of a joint prefill+decode plan
// autotuning.
type SessionResult struct {
	// Plan binds every session synchronization class — the prefill and
	// decode classes jointly — to its winning topology.
	Plan collective.Plan
	// Cycles is the winner's exact session cost (prefill + one decode
	// step); PredictedCycles is what the predictor estimated for it
	// before verification (equal to Cycles under Exhaustive).
	Cycles          float64
	PredictedCycles float64
	// PrefillReport / DecodeReport are the winner's two exact
	// evaluations.
	PrefillReport *core.Report
	DecodeReport  *core.Report
	// PerClass lists the winning choice per session class, in class
	// order.
	PerClass []ClassChoice
	// BestUniform is the best single-topology session — the baseline a
	// joint plan has to beat — with its session cycles and the win
	// margin UniformCycles / Cycles (>= 1; 1 means a uniform plan is
	// optimal).
	BestUniform   hw.Topology
	UniformCycles float64
	Margin        float64
	// RankAccuracy is the predictor's pairwise ordering concordance
	// over the verified candidates: the fraction of verified pairs the
	// predicted ranking ordered consistently with exact cycles (1 under
	// Exhaustive, where no prediction happens).
	RankAccuracy float64
	// Candidates is the size of the joint class × topology grid;
	// GridSims = 2 × Candidates is the exact-simulation bill of
	// enumerating it exhaustively; ExactSims is the number of distinct
	// exact evaluations this call needed (measured as the evalpool
	// memory-miss delta, so points already memoized — shared probes,
	// repeated calls — are not double-billed, and evaluations answered
	// by a warm persistent store still count: the search cost is a
	// property of the search, not of where the reports were stored).
	Candidates int
	GridSims   int
	ExactSims  int
	// Verified lists the exactly-checked candidates in predicted order
	// (empty under Exhaustive) — the predictor-vs-exact margin table.
	Verified []SessionCandidate
	// Costs is the predictor's per-class cost vector (empty under
	// Exhaustive).
	Costs []ClassCost
	// Network is the network description the session was tuned for.
	Network hw.Network
}

// sessionMode is one phase of the session: its workload and the
// synchronization classes it executes.
type sessionMode struct {
	wl      core.Workload
	classes []collective.SyncClass
}

// sessionModes resolves the two phases and the ordered union of their
// active classes (the joint plan's axis). The tensor-parallel phases
// contribute disjoint classes; the replicated exchanges execute in
// both phases and appear once.
func sessionModes(base core.System, cfg model.Config, opts SessionOptions) ([]sessionMode, []collective.SyncClass, error) {
	pre := collective.ActiveClasses(base.Strategy, model.Prompt)
	dec := collective.ActiveClasses(base.Strategy, model.Autoregressive)
	if len(pre) == 0 || len(dec) == 0 {
		return nil, nil, fmt.Errorf("explore: the %s strategy executes no collective synchronizations to plan", base.Strategy)
	}
	modes := []sessionMode{
		{wl: core.Workload{Model: cfg, Mode: model.Prompt, SeqLen: opts.PromptSeqLen}, classes: pre},
		{wl: core.Workload{Model: cfg, Mode: model.Autoregressive, SeqLen: opts.DecodeSeqLen}, classes: dec},
	}
	var union []collective.SyncClass
	seen := map[collective.SyncClass]bool{}
	for _, m := range modes {
		for _, c := range m.classes {
			if !seen[c] {
				seen[c] = true
				union = append(union, c)
			}
		}
	}
	return modes, union, nil
}

// AutotuneSession tunes the per-sync collective plan of a whole
// generation session — one prompt prefill plus one autoregressive
// decode step at the paper's sequence lengths — jointly over the full
// class × topology grid, for the base system's chip count and network.
//
// By default it runs the predict-then-verify search: one probe
// simulation per (class, topology) builds an additive per-class cost
// model (session cost of a candidate = per-phase baseline + the sum of
// its classes' measured deltas), every candidate in the joint grid is
// ranked by predicted cost, and only the top-K plus the four uniform
// sessions are verified exactly. The winner is the verified candidate
// with the fewest exact cycles — predictions only choose what to
// verify, never who wins — and on the pinned operating points the
// equivalence tests hold it identical to exhaustive enumeration at a
// fraction of the simulations (ExactSims vs GridSims on the result).
// Set the returned Plan on System.Options.SyncPlan to deploy it.
func AutotuneSession(base core.System, cfg model.Config, opts SessionOptions) (*SessionResult, error) {
	evalsBefore := evalpool.Evaluations()
	modes, union, err := sessionModes(base, cfg, opts)
	if err != nil {
		return nil, err
	}
	topos := hw.Topologies()
	refIdx := topoIndex(topos, base.HW.Topology)
	if refIdx < 0 {
		return nil, fmt.Errorf("explore: %s is not a supported topology", base.HW.Topology)
	}
	cands := odometer(len(union), len(topos))
	res := &SessionResult{
		Candidates: len(cands),
		GridSims:   2 * len(cands),
		Network:    base.HW.Network,
	}

	// Select what to verify, in odometer order: everything, as
	// deployed, under Exhaustive; otherwise the predicted top-K plus
	// the uniform sessions, which verify for free (their phase points
	// are the surrogate's own probes) and guarantee the winner never
	// loses to a uniform plan.
	var predicted []float64
	sel := indices(len(cands))
	if !opts.Exhaustive {
		pred, err := fitSurrogate(base, modes, union, topos, refIdx)
		if err != nil {
			return nil, err
		}
		res.Costs = pred.costs
		predicted = make([]float64, len(cands))
		for i, idx := range cands {
			predicted[i] = pred.predict(idx)[objCycles]
		}
		topK := opts.TopK
		if topK <= 0 {
			topK = DefaultSessionTopK
		}
		sel = rankByCost(predicted, topK)
		for ti := range topos {
			if i := allSameIndex(ti, len(union), len(topos)); !slices.Contains(sel, i) {
				sel = append(sel, i)
			}
		}
		slices.Sort(sel)
	}
	plans := make([]collective.Plan, len(sel))
	for k, i := range sel {
		plans[k] = bind(union, topos, cands[i])
	}
	verified, err := evalCands(base, modes, plans, opts.Exhaustive, "session verify")
	if err != nil {
		return nil, err
	}

	// Winner: fewest exact session cycles among the verified
	// candidates; ties keep the earliest candidate in odometer order.
	best := argmin(len(verified), func(k int) float64 { return verified[k].Cycles })
	win := verified[best]
	res.Plan, res.Cycles = win.Plan, win.Cycles
	res.PrefillReport, res.DecodeReport = win.PrefillReport, win.DecodeReport
	res.PerClass = perClass(win.Plan, union)
	if opts.Exhaustive {
		res.PredictedCycles = res.Cycles
		res.RankAccuracy = 1
	} else {
		// The verified table in predicted order. Ties keep odometer
		// order, as in the top-K rank that chose them.
		selPred := make([]float64, len(sel))
		for k, i := range sel {
			selPred[k] = predicted[i]
		}
		res.PredictedCycles = selPred[best]
		exact := make([]float64, 0, len(sel))
		for _, k := range rankByCost(selPred, 0) {
			res.Verified = append(res.Verified, SessionCandidate{
				Plan:            verified[k].Plan,
				PredictedCycles: selPred[k],
				Cycles:          verified[k].Cycles,
			})
			exact = append(exact, verified[k].Cycles)
		}
		res.RankAccuracy = concordance(exact)
	}
	// Best uniform session: the all-same candidates are always
	// verified (exhaustive trivially includes them).
	uniform := func(ti int) float64 {
		k, _ := slices.BinarySearch(sel, allSameIndex(ti, len(union), len(topos)))
		return verified[k].Cycles
	}
	uni := argmin(len(topos), uniform)
	res.BestUniform = topos[uni]
	res.UniformCycles = uniform(uni)
	res.Margin = res.UniformCycles / res.Cycles
	res.ExactSims = int(evalpool.Evaluations() - evalsBefore)
	return res, nil
}

// AutotuneSessionNetworks folds the network axis into the session
// autotuner: it tunes one joint plan per network profile on otherwise
// identical systems — "a plan per network profile", the clustered
// boards' deployment question — and returns results in input order.
// All evaluations share the process-wide report cache.
func AutotuneSessionNetworks(base core.System, cfg model.Config, opts SessionOptions, nets []hw.Network) ([]*SessionResult, error) {
	out := make([]*SessionResult, len(nets))
	for i, net := range nets {
		sys := base
		sys.HW.Network = net
		res, err := AutotuneSession(sys, cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("explore: session autotune on %s: %w", net, err)
		}
		out[i] = res
	}
	return out, nil
}
