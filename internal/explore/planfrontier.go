package explore

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// This file is the surrogate-first face of the frontier: Frontier
// prices every chip count with one exact simulation, which is the
// right tool for the chip axis but not for the collective-plan axis,
// whose joint grid multiplies every cell by topologies^classes (256
// session plans for the tensor-parallel scheme). PlanFrontier folds
// that axis in by fitting the shared Surrogate once per (network,
// chip-count) cell — ~20 probe simulations — predicting all
// candidates, and exactly verifying only the predicted Pareto edge,
// the predicted top-K, and the uniform baselines. Exact simulation remains the ground truth:
// every returned point is exactly evaluated, and predictions only
// decide what is worth verifying.

// PlanFrontierOptions tunes PlanFrontier.
type PlanFrontierOptions struct {
	// Networks is the optional network-profile axis; empty scans only
	// the base system's network.
	Networks []hw.Network
	// TopK is the number of predicted-best candidates verified exactly
	// per grid cell, on each objective (0 selects DefaultSessionTopK).
	// The predicted Pareto edge and the uniform plans are always
	// verified in addition.
	TopK int
	// Exhaustive disables the surrogate and evaluates every joint plan
	// exactly, as deployed — the ground-truth reference the
	// equivalence tests hold the surrogate-first scan to. It costs
	// GridSims simulations.
	Exhaustive bool
	// PromptSeqLen / DecodeSeqLen override the session's two phase
	// sequence lengths (0 selects the paper's values).
	PromptSeqLen int
	DecodeSeqLen int
}

// PlanPoint is one exactly-verified (network, chip count, plan)
// candidate of a plan-aware frontier scan.
type PlanPoint struct {
	Network hw.Network
	Chips   int
	VerifiedPlan
	// Pareto marks session latency/energy Pareto-optimal points within
	// the verified union.
	Pareto bool
}

// PlanFrontierResult is the outcome of a surrogate-first plan
// frontier scan.
type PlanFrontierResult struct {
	// Points lists the exactly-verified candidates grouped by network
	// in input order, then chip count ascending, then candidate in
	// enumeration order; the Pareto marks span the whole union.
	Points []PlanPoint
	// Candidates is the full plan-grid size across all cells; GridSims
	// is the exact-simulation bill of enumerating it exhaustively as
	// deployed; ExactSims is the number of distinct exact evaluations
	// this scan needed (the evalpool memory-miss delta — disk-served
	// evaluations count, so the number is identical cold and warm).
	Candidates int
	GridSims   int
	ExactSims  int
}

// planCell runs one (network, chip count) cell of the scan and
// returns its verified candidates in enumeration order.
func planCell(sys core.System, cfg model.Config, opts PlanFrontierOptions) ([]VerifiedPlan, int, error) {
	sopts := SessionOptions{PromptSeqLen: opts.PromptSeqLen, DecodeSeqLen: opts.DecodeSeqLen}
	modes, union, err := sessionModes(sys, cfg, sopts)
	if err != nil {
		return nil, 0, err
	}
	topos := hw.Topologies()
	if opts.Exhaustive {
		out, err := evalCands(sys, modes, planGrid(union, topos), true, "session grid")
		if err != nil {
			return nil, 0, err
		}
		// Nothing is predicted: the exact values stand in.
		for i := range out {
			vp := &out[i]
			vp.PredictedCycles, vp.PredictedSeconds, vp.PredictedJoules = vp.Cycles, vp.Seconds, vp.Joules
		}
		return out, len(out), nil
	}

	refIdx := topoIndex(topos, sys.HW.Topology)
	if refIdx < 0 {
		return nil, 0, fmt.Errorf("explore: %s is not a supported topology", sys.HW.Topology)
	}
	s, err := fitSurrogate(sys, modes, union, topos, refIdx)
	if err != nil {
		return nil, 0, err
	}
	cands := odometer(len(union), len(topos))
	preds := make([][numObjectives]float64, len(cands))
	predS := make([]float64, len(cands))
	predJ := make([]float64, len(cands))
	for i, idx := range cands {
		preds[i] = s.predict(idx)
		predS[i] = preds[i][objSeconds]
		predJ[i] = preds[i][objJoules]
	}

	topK := opts.TopK
	if topK <= 0 {
		topK = DefaultSessionTopK
	}
	// Seed the verification set: the predicted top-K on each
	// objective, plus the uniform plans — whose phase points are the
	// surrogate's own probes, so they verify without new simulations
	// and keep the scan honest against every single-topology baseline.
	seed := map[int]bool{}
	for _, pred := range [][]float64{predS, predJ} {
		for _, i := range rankByCost(pred, topK) {
			seed[i] = true
		}
	}
	for ti := range topos {
		seed[allSameIndex(ti, len(union), len(topos))] = true
	}
	band := slices.Sorted(maps.Keys(seed))

	// Verify the band, then refine to the exact Pareto edge: the
	// additive prediction misses within-phase interactions, so
	// near-ties can hide true front members. Bound the model's error
	// by twice the largest residual observed on the verified points,
	// and exactly verify every candidate whose optimistic corner
	// (prediction minus that bound) is not dominated by an
	// already-verified exact point — if its prediction can still reach
	// the front, it gets measured. Repeat until the band is empty;
	// each verified point also tightens what "can still reach" means.
	// The phase-restricted verification spellings share simulations
	// heavily (topologies^per-phase-classes distinct points per phase
	// in the worst case), so even a degenerate band stays far below
	// the as-deployed grid bill.
	got := map[int]VerifiedPlan{}
	for len(band) > 0 {
		plans := make([]collective.Plan, len(band))
		for j, i := range band {
			plans[j] = bind(union, topos, cands[i])
		}
		verified, err := evalCands(sys, modes, plans, false, "session verify")
		if err != nil {
			return nil, 0, err
		}
		for j, i := range band {
			vp := verified[j]
			vp.PredictedCycles = preds[i][objCycles]
			vp.PredictedSeconds = preds[i][objSeconds]
			vp.PredictedJoules = preds[i][objJoules]
			got[i] = vp
		}
		var errS, errJ float64
		for i, vp := range got {
			if d := math.Abs(predS[i] - vp.Seconds); d > errS {
				errS = d
			}
			if d := math.Abs(predJ[i] - vp.Joules); d > errJ {
				errJ = d
			}
		}
		errS *= 2
		errJ *= 2
		band = band[:0]
		for i := range cands {
			if _, ok := got[i]; ok {
				continue
			}
			cornerS, cornerJ := predS[i]-errS, predJ[i]-errJ
			dominated := false
			for _, vp := range got {
				if (vp.Seconds < cornerS && vp.Joules <= cornerJ) ||
					(vp.Seconds <= cornerS && vp.Joules < cornerJ) {
					dominated = true
					break
				}
			}
			if !dominated {
				band = append(band, i)
			}
		}
	}

	// Return in candidate enumeration order, so output is independent
	// of the refinement's round structure.
	out := make([]VerifiedPlan, 0, len(got))
	for i := range cands {
		if vp, ok := got[i]; ok {
			out = append(out, vp)
		}
	}
	return out, len(cands), nil
}

// PlanFrontier scans the collective-plan axis jointly with the chip
// count (and optionally the network profile): per (network, chips)
// cell it fits the shared Surrogate, predicts the whole joint plan
// grid on both session objectives, and exactly verifies the predicted
// Pareto edge, the per-objective top-K, and the uniform baselines.
// The returned points are all exactly evaluated, with the session
// latency/energy Pareto front marked across the verified union — on
// the pinned operating points the equivalence tests hold that front
// identical to exhaustive enumeration at a fraction of the
// simulations (ExactSims vs GridSims).
func PlanFrontier(base core.System, cfg model.Config, chips []int, opts PlanFrontierOptions) (*PlanFrontierResult, error) {
	evalsBefore := evalpool.Evaluations()
	nets := opts.Networks
	if len(nets) == 0 {
		nets = []hw.Network{base.HW.Network}
	}
	res := &PlanFrontierResult{}
	for _, net := range nets {
		for _, n := range chips {
			sys := base
			sys.HW.Network = net
			sys.Chips = n
			verified, cells, err := planCell(sys, cfg, opts)
			if err != nil {
				return nil, fmt.Errorf("explore: plan frontier (%s, %d chips): %w", net, n, err)
			}
			res.Candidates += cells
			for _, vp := range verified {
				res.Points = append(res.Points, PlanPoint{Network: net, Chips: n, VerifiedPlan: vp})
			}
		}
	}
	res.GridSims = 2 * res.Candidates
	// Session-level Pareto over the verified union.
	secs := make([]float64, len(res.Points))
	jls := make([]float64, len(res.Points))
	for i, p := range res.Points {
		secs[i], jls[i] = p.Seconds, p.Joules
	}
	for i, pareto := range paretoMask(secs, jls) {
		res.Points[i].Pareto = pareto
	}
	res.ExactSims = int(evalpool.Evaluations() - evalsBefore)
	return res, nil
}
