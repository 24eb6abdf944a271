package explore

import (
	"fmt"
	"slices"

	"mcudist/internal/core"
	"mcudist/internal/deploy"
	"mcudist/internal/evalpool"
	"mcudist/internal/kernels"
	"mcudist/internal/memsim"
)

// This file autotunes the memory-hierarchy tile shapes — one tiling
// per layer family (attention projections vs feed-forward matrices) —
// for a streamed-tier deployment under the DRAM-backed memory model.
// The joint grid is attention-candidates × FFN-candidates exact
// simulations if enumerated naively. AutotuneTiling avoids almost all
// of them with a predict-then-verify structure that needs ZERO probe
// simulations: the simulator executes each streamed GEMM tile-by-tile
// at exactly its closed-form plan makespan (an identity the perfsim
// tests pin), so the per-family sum of memsim plan makespans over one
// lowering — max across chips, scaled by each chip's block count — is
// already an additive predictor of how a (attention, FFN) tiling pair
// ranks. Only the predicted top-K pairs (plus the best uniform
// tilings, which the margin baseline needs anyway) are verified with
// exact simulations; the winner is always chosen on verified cycles.

// DefaultTilingTopK is the number of predicted-best tiling pairs
// AutotuneTiling verifies exactly when TilingOptions.TopK is zero.
const DefaultTilingTopK = 4

// DefaultUniformVerify is how many predicted-best uniform tilings the
// search always verifies: the margin baseline a per-family split has
// to beat.
const DefaultUniformVerify = 2

// TilingOptions tunes AutotuneTiling.
type TilingOptions struct {
	// TopK is the number of predicted-best (attention, FFN) tiling
	// pairs to verify with exact simulations (0 selects
	// DefaultTilingTopK). The predicted-best uniform tilings are
	// always verified in addition, so the winner can never lose to a
	// single shared tiling.
	TopK int
	// Exhaustive disables the predictor ranking and evaluates every
	// pair in the (possibly capped) grid exactly. This is the
	// ground-truth reference the equivalence tests hold the pruned
	// search to; it costs one simulation per pair.
	Exhaustive bool
	// Candidates caps each family's tiling list to its
	// predicted-best C entries (0 keeps the whole shared candidate
	// pool). The cap bounds the exhaustive grid, so equivalence tests
	// stay affordable.
	Candidates int
}

// TilingCandidate is one exactly-verified tiling pair: the pair, the
// closed-form prediction, and the exact cycles.
type TilingCandidate struct {
	Attn            memsim.Tiling
	FFN             memsim.Tiling
	PredictedCycles float64
	Cycles          float64
}

// TilingResult is the outcome of a per-family tiling autotuning.
type TilingResult struct {
	// Attn / FFN are the winning tilings per layer family; Cycles is
	// the winner's exact runtime and PredictedCycles the closed-form
	// estimate that ranked it (per-family makespan sums, not a
	// simulation — the two agree only up to cross-op overlap and
	// non-GEMM work, which is exactly why the exact simulator stays
	// the ground truth).
	Attn            memsim.Tiling
	FFN             memsim.Tiling
	Cycles          float64
	PredictedCycles float64
	// Report is the winner's exact evaluation.
	Report *core.Report
	// BestUniform is the best single tiling shared by both families —
	// the baseline a per-family split has to beat — with its exact
	// cycles, report, and the win margin UniformCycles / Cycles
	// (>= 1; 1 means one shared tiling is optimal).
	BestUniform   memsim.Tiling
	UniformCycles float64
	UniformReport *core.Report
	Margin        float64
	// RankAccuracy is the predictor's pairwise ordering concordance
	// over the verified candidates (1 under Exhaustive, where no
	// prediction happens).
	RankAccuracy float64
	// Candidates is the size of the (capped) pair grid; GridSims is
	// the exact-simulation bill of enumerating it exhaustively (one
	// per pair); ExactSims is the number of distinct exact evaluations
	// this call needed, measured as the evalpool memory-miss delta.
	Candidates int
	GridSims   int
	ExactSims  int
	// Verified lists the exactly-checked pairs in predicted order
	// (grid order under Exhaustive) — the predictor-vs-exact table.
	Verified []TilingCandidate
}

// famGEMMs is one streamed chip's tileable GEMMs of one layer family,
// with the chip's per-forward block count as the multiplier.
type famGEMMs struct {
	blocks float64
	gemms  []memsim.GEMM
}

// tilingFamilies splits the streamed chips' tileable GEMMs by layer
// family (the kernels carry the FFN tag the deployment planner set).
func tilingFamilies(d *deploy.Deployment) (attn, ffn []famGEMMs) {
	for i := range d.Chips {
		cd := &d.Chips[i]
		if cd.Tier != deploy.TierStreamed {
			continue
		}
		var a, f famGEMMs
		a.blocks = float64(cd.Blocks)
		f.blocks = float64(cd.Blocks)
		for _, ops := range [][]kernels.Cost{cd.MHSA, cd.FC} {
			for _, c := range ops {
				if g, ok := memsim.GEMMOf(c); ok {
					if c.FFN {
						f.gemms = append(f.gemms, g)
					} else {
						a.gemms = append(a.gemms, g)
					}
				}
			}
		}
		if len(a.gemms) > 0 {
			attn = append(attn, a)
		}
		if len(f.gemms) > 0 {
			ffn = append(ffn, f)
		}
	}
	return attn, ffn
}

// tilingPool is the shared candidate pool: the deduplicated union of
// every streamed GEMM's slot-fitting tilings, in first-seen order.
// One shared pool (rather than per-family grids) keeps uniform
// tilings well-defined for both families.
func tilingPool(ch memsim.Channel, fams ...[]famGEMMs) []memsim.Tiling {
	var pool []memsim.Tiling
	seen := map[memsim.Tiling]bool{}
	for _, fam := range fams {
		for _, cg := range fam {
			for _, g := range cg.gemms {
				for _, t := range memsim.CandidateTilings(ch, g) {
					if !seen[t] {
						seen[t] = true
						pool = append(pool, t)
					}
				}
			}
		}
	}
	return pool
}

// familyCost is the closed-form per-family predictor: the bottleneck
// chip's per-block makespan sum under tiling t, scaled by its block
// count, plus the tiling-dependent activation-spill transfers (each
// extra column pass re-reads the GEMM input from L3 — the term that
// makes narrow tiles expensive even when their makespan looks good).
// Tile dimensions larger than a GEMM's own K/N clamp inside PlanGEMM,
// so every pool tiling prices every GEMM.
func familyCost(ch memsim.Channel, fam []famGEMMs, t memsim.Tiling, spill bool) (float64, error) {
	var worst float64
	for _, cg := range fam {
		var sum float64
		for _, g := range cg.gemms {
			p, err := memsim.PlanGEMM(ch, g, t)
			if err != nil {
				return 0, err
			}
			sum += p.Makespan()
			if spill {
				refetch := int64(p.ActPasses) + 1
				if refetch < 2 {
					refetch = 2
				}
				ab := int64(g.ActElemBytes)
				bytes := int64(g.M)*int64(g.K)*ab*refetch + int64(g.M)*int64(g.N)*ab
				sum += ch.TransferCycles(bytes)
			}
		}
		if c := cg.blocks * sum; c > worst {
			worst = c
		}
	}
	return worst, nil
}

// tilingPoint spells one exact evaluation of a tiling pair: both
// families pinned explicitly on the base system, so a uniform pair
// (t, t) and the grid pair (t, t) share one cache entry.
func tilingPoint(base core.System, wl core.Workload, ta, tf memsim.Tiling) evalpool.Point {
	sys := base
	sys.HW.Mem.TileK, sys.HW.Mem.TileN = ta.K, ta.N
	sys.HW.Mem.FFNTileK, sys.HW.Mem.FFNTileN = tf.K, tf.N
	return evalpool.Point{System: sys, Workload: wl}
}

// AutotuneTiling tunes the DRAM-backed memory hierarchy's tile shapes
// per layer family — one tiling for the attention projections, one
// for the feed-forward matrices — for the base system's streamed-tier
// deployment of the workload.
//
// The search needs zero probe simulations: one lowering exposes every
// streamed GEMM, the closed-form plan makespans price each candidate
// tiling per family additively, and only the predicted top-K pairs
// plus the best uniform tilings are verified with exact simulations.
// The winner is the verified pair with the fewest exact cycles —
// predictions only choose what to verify, never who wins — and on the
// pinned operating points the equivalence tests hold it identical to
// exhaustive grid enumeration at a fraction of the simulations
// (ExactSims vs GridSims on the result). Set HW.Mem.TileK/TileN and
// FFNTileK/FFNTileN from the returned pair to deploy it.
func AutotuneTiling(base core.System, wl core.Workload, opts TilingOptions) (*TilingResult, error) {
	evalsBefore := evalpool.Evaluations()
	if !base.HW.Mem.Enabled() {
		return nil, fmt.Errorf("explore: tiling autotune needs the hierarchical memory model enabled (HW.Mem profile is %s)", base.HW.Mem.Profile)
	}
	d, err := core.Lower(base, wl)
	if err != nil {
		return nil, err
	}
	attn, ffn := tilingFamilies(d)
	if len(attn) == 0 || len(ffn) == 0 {
		return nil, fmt.Errorf("explore: tiling autotune needs a streamed-tier deployment with tileable GEMMs in both layer families (tier %v)", d.WorstTier())
	}
	ch := memsim.ChannelOf(base.HW)
	pool := tilingPool(ch, attn, ffn)
	if len(pool) == 0 {
		return nil, fmt.Errorf("explore: no candidate tilings fit the %d-byte stream slot", ch.SlotBytes)
	}

	// Closed-form family costs over the whole pool (no simulations).
	spill := !base.Options.NoActivationSpill
	aCost := make([]float64, len(pool))
	fCost := make([]float64, len(pool))
	for i, t := range pool {
		if aCost[i], err = familyCost(ch, attn, t, spill); err != nil {
			return nil, fmt.Errorf("explore: pricing attention tiling %s: %w", t, err)
		}
		if fCost[i], err = familyCost(ch, ffn, t, spill); err != nil {
			return nil, fmt.Errorf("explore: pricing FFN tiling %s: %w", t, err)
		}
	}
	aList := rankByCost(aCost, opts.Candidates)
	fList := rankByCost(fCost, opts.Candidates)

	// The pair grid, in deterministic enumeration order (attention
	// outer), with its additive prediction.
	type pair struct {
		ai, fi int // pool indices
	}
	pairs := make([]pair, 0, len(aList)*len(fList))
	predicted := make([]float64, 0, len(aList)*len(fList))
	for _, ai := range aList {
		for _, fi := range fList {
			pairs = append(pairs, pair{ai: ai, fi: fi})
			predicted = append(predicted, aCost[ai]+fCost[fi])
		}
	}
	res := &TilingResult{
		Candidates: len(pairs),
		GridSims:   len(pairs),
	}

	// Select what to verify exactly, in grid order: every pair under
	// Exhaustive, otherwise the predicted top-K.
	sel := indices(len(pairs))
	if !opts.Exhaustive {
		topK := opts.TopK
		if topK <= 0 {
			topK = DefaultTilingTopK
		}
		sel = rankByCost(predicted, topK)
		slices.Sort(sel)
	}

	// The uniform baseline: the predicted-best single tilings shared
	// by both families, always verified (the margin needs them).
	uCost := make([]float64, len(pool))
	for i := range pool {
		uCost[i] = aCost[i] + fCost[i]
	}
	uniList := rankByCost(uCost, DefaultUniformVerify)

	// Evaluate one deduplicated point per selected pair, then per
	// uniform: a uniform point (t, t) shares its cache entry with the
	// grid pair (t, t) when both families kept t.
	type cand struct {
		attn, ffn memsim.Tiling
		predicted float64
		point     int
	}
	var ev evalSet
	cands := make([]cand, 0, len(sel)+len(uniList))
	add := func(ta, tf memsim.Tiling, predicted float64) {
		cands = append(cands, cand{ta, tf, predicted, ev.add(tilingPoint(base, wl, ta, tf))})
	}
	for _, i := range sel {
		add(pool[pairs[i].ai], pool[pairs[i].fi], predicted[i])
	}
	for _, pi := range uniList {
		add(pool[pi], pool[pi], uCost[pi])
	}
	reports, err := ev.run("tiling verify")
	if err != nil {
		return nil, err
	}
	report := func(k int) *core.Report { return reports[cands[k].point] }
	cycles := func(k int) float64 { return report(k).Cycles }

	// Winner: fewest exact cycles over verified pairs and uniforms;
	// ties keep the earliest grid pair, and the uniform extras rank
	// after the grid, so a uniform duplicate of a grid pair never
	// displaces it.
	best := argmin(len(cands), cycles)
	res.Attn, res.FFN = cands[best].attn, cands[best].ffn
	res.PredictedCycles = cands[best].predicted
	res.Cycles, res.Report = cycles(best), report(best)

	// Best uniform and the per-family win margin.
	uni := len(sel) + argmin(len(uniList), func(j int) float64 { return cycles(len(sel) + j) })
	res.BestUniform = cands[uni].attn
	res.UniformCycles, res.UniformReport = cycles(uni), report(uni)
	res.Margin = res.UniformCycles / res.Cycles

	// The verified table, in predicted order (grid order under
	// Exhaustive), and the predictor's rank concordance.
	order := indices(len(sel))
	if !opts.Exhaustive {
		selPred := make([]float64, len(sel))
		for k := range sel {
			selPred[k] = cands[k].predicted
		}
		order = rankByCost(selPred, 0)
	}
	exact := make([]float64, len(order))
	for j, k := range order {
		exact[j] = cycles(k)
		res.Verified = append(res.Verified, TilingCandidate{
			Attn:            cands[k].attn,
			FFN:             cands[k].ffn,
			PredictedCycles: cands[k].predicted,
			Cycles:          exact[j],
		})
	}
	res.RankAccuracy = 1
	if !opts.Exhaustive {
		res.RankAccuracy = concordance(exact)
	}
	res.ExactSims = int(evalpool.Evaluations() - evalsBefore)
	return res, nil
}
