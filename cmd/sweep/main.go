// Command sweep runs a workload across a list of chip counts and
// emits one CSV row per configuration — the raw data behind the
// paper's figures, ready for plotting.
//
// Usage:
//
//	sweep -model tinyllama -mode autoregressive -chips 1,2,4,8
//	sweep -model scaled -mode prompt -chips 1,2,4,8,16,32,64 -workers 4
//	sweep -model tinyllama -mode prompt -chips 8 -topology ring
//	sweep -model scaled -mode prompt -chips 16,64 -topology ring \
//	      -network clustered -cluster 4 -backhaul 10
//	sweep -model scaled -mode prompt -chips 64 -plan prefill=ring,decode=tree
//	sweep -model scaled -mode prompt -chips 16,64 -autotune
//	sweep -model scaled -chips 8,64 -autotune-session
//	sweep -model scaled -chips 64 -autotune-session -topk 16 \
//	      -network clustered -cluster 4 -backhaul 10
//	sweep -model scaled -chips 1,2,4,8 -cache-dir ~/.cache/mcudist -cache-stats
//	                        # second run answers from the persistent
//	                        # result store: exact_sims=0
//	sweep -model tinyllama -chips 2 -mem dram
//	sweep -model edgellama -chips 8 -mem dram -mem-banks 16 -tile 32x256
//	sweep -model edgellama -chips 8 -mem dram -tile 32x352 -ffn-tile 32x512
//	sweep -model edgellama -chips 8 -mem dram -autotune-tiling
//	sweep -fleet -model scaled -chips 64 -groups 2 -rates 50,100,200,400
//	sweep -fleet -chips 8 -max-batch 4 -requests 5000 -fleet-autotune
//	sweep -model tinyllama -chips 4 -netlist board.netlist
//	sweep -model tinyllama -chips 8 -fault slow:0-1x10
//	sweep -model scaled -chips 64 -replan -fault drop:3
//	sweep -fleet -chips 8 -groups 2 -fault drop:3 -fault-at 5 -fault-replan
//	sweep -model scaled -chips 8 -cache-dir /tmp/c -cache-compact /tmp/c.compact
//
// Each run is one study: the plain sweep, or the one selected by
// -autotune, -autotune-session, -autotune-tiling, -replan or -fleet.
// The studies table lists the flags each study reads; two study flags,
// or a set flag the chosen study does not read, exit 1 naming the
// flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/fleet"
	"mcudist/internal/hw"
	"mcudist/internal/memsim"
	"mcudist/internal/model"
	"mcudist/internal/prof"
	"mcudist/internal/report"
	"mcudist/internal/resilience"
	"mcudist/internal/resultstore"
)

var (
	modelName  = flag.String("model", "tinyllama", "model: tinyllama | scaled | mobilebert | smollm | edgellama")
	modeName   = flag.String("mode", "autoregressive", "mode: autoregressive | prompt")
	chipsList  = flag.String("chips", "1,2,4,8", "comma-separated chip counts")
	seqLen     = flag.Int("seqlen", 0, "sequence length (0 = paper default)")
	topoName   = flag.String("topology", "tree", "interconnect shape: tree | star | ring | fully-connected")
	netName    = flag.String("network", "uniform", "link-layer profile: uniform | clustered")
	backhaul   = flag.Float64("backhaul", 10, "clustered profile: inter-cluster bandwidth slowdown vs MIPI")
	cluster    = flag.Int("cluster", 4, "clustered profile: chips per fast local cluster")
	planSpec   = flag.String("plan", "", "per-sync collective plan, e.g. prefill=ring,decode=tree (empty = uniform -topology)")
	autotune   = flag.Bool("autotune", false, "autotune the per-sync plan at each chip count and report it against the best uniform topology")
	session    = flag.Bool("autotune-session", false, "autotune prefill+decode jointly at each chip count (predict-then-verify over the full class x topology grid; -seqlen sets the prompt length, -mode is rejected)")
	topK       = flag.Int("topk", 0, "session autotuning: predicted-best candidates to verify exactly (0 = default)")
	fleetMode  = flag.Bool("fleet", false, "fleet-serving mode: sweep Poisson arrival rates over a chip-group fleet with continuous batching (one CSV row per rate; -mode/-seqlen/-topology/-network/-plan are rejected)")
	rates      = flag.String("rates", "50,100,200,400,800,1600", "fleet: comma-separated offered arrival rates, requests per second")
	requests   = flag.Int("requests", 2000, "fleet: requests per trace")
	seed       = flag.Uint64("seed", 11, "fleet: trace RNG seed")
	groups     = flag.Int("groups", 1, "fleet: independent chip groups (each -chips wide)")
	maxBatch   = flag.Int("max-batch", 0, "fleet: decode micro-batch cap per group (0 = default 8; 1 = no batching)")
	fleetTune  = flag.Bool("fleet-autotune", false, "fleet: pick each group's collective plan with the session autotuner")
	fleetSlow  = flag.Bool("fleet-serial", false, "fleet: disable the parallel shape pre-pricing pass and price every step lazily inside the serial event loop (the reference path; output is byte-identical either way)")
	netlist    = flag.String("netlist", "", "measured per-edge wiring file (chips/class/link directives); selects the table network profile and overrides -network")
	faultSpec  = flag.String("fault", "", "fault injection spec, comma-separated: drop:CHIP | slow:FROM-TOxFACTOR | straggle:CHIPxFACTOR (e.g. drop:3,slow:0-1x10); degrades each swept system before pricing")
	replan     = flag.Bool("replan", false, "resilience study: autotune the pristine system at each chip count, apply -fault, and race the stale plan against re-planning on the degraded board (one CSV row per chip count)")
	faultAt    = flag.Float64("fault-at", 0, "fleet: fault time on the fleet clock in seconds (with -fleet -fault)")
	faultGroup = flag.Int("fault-group", 0, "fleet: chip group the -fault degrades")
	faultTune  = flag.Bool("fault-replan", false, "fleet: re-tune the degraded group's collective plan at fault time")
	memName    = flag.String("mem", "flat", "off-chip memory model: flat (legacy byte count) | dram (LPDDR5-backed tiled hierarchy)")
	memDepth   = flag.Int("mem-depth", 0, "dram: prefetch depth, weight tiles fetched ahead of compute (0 = preset)")
	memBanks   = flag.Int("mem-banks", 0, "dram: interleaved SRAM banks between prefetch and compute (0 = preset)")
	memBPC     = flag.Float64("mem-bpc", 0, "dram: channel payload bandwidth, bytes per cluster cycle (0 = preset)")
	memBurst   = flag.Int("mem-burst", 0, "dram: burst granule in bytes (0 = preset)")
	memSetup   = flag.Int("mem-burst-setup", -1, "dram: per-burst setup cycles (-1 = preset)")
	memPJ      = flag.Float64("mem-pj", 0, "dram: transfer energy in pJ per byte (0 = preset)")
	tileSpec   = flag.String("tile", "", "dram: weight-tile shape KxN for streamed GEMMs, e.g. 32x256 (empty = auto: largest tile fitting one stream-buffer slot)")
	ffnTile    = flag.String("ffn-tile", "", "dram: tile-shape override for the FFN layer family (empty = inherit -tile)")
	tiling     = flag.Bool("autotune-tiling", false, "dram: autotune per-family tile shapes at each chip count (predict-then-verify over the attention x FFN tiling grid) and report them against the best uniform tiling")
	workers    = flag.Int("workers", 0, "concurrent evaluations (0 = GOMAXPROCS)")
	cacheDir   = flag.String("cache-dir", "", "persistent result store directory: configurations simulated once are reloaded on every later run (default off; falls back to $MCUDIST_CACHE)")
	cacheStats = flag.Bool("cache-stats", false, "print memory-hit / disk-hit / exact-simulation counts and store size to stderr after the sweep")
	compactDir = flag.String("cache-compact", "", "after the sweep, compact the persistent store into this directory, keeping only current-format entries (requires an attached store)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
)

// input is what every study runs on: the board the flags describe
// (each study sets its own chip count), the workload, the chip list,
// and the parsed -fault spec.
type input struct {
	base   core.System
	wl     core.Workload
	chips  []int
	faults []resilience.Fault
}

// study is one row of the studies table: the bool flag that selects
// it ("" for the plain sweep), the flags it reads besides the shared
// ones, and its runner.
type study struct {
	flag  string
	reads []string
	run   func(in input)
}

func (s *study) String() string {
	if s.flag == "" {
		return "the plain sweep"
	}
	return "-" + s.flag
}

var (
	// shared flags are read by every study: the model, the chip list,
	// the memory tier, and the evaluation engine's knobs.
	shared = []string{"model", "chips", "mem", "mem-depth", "mem-banks", "mem-bpc",
		"mem-burst", "mem-burst-setup", "mem-pj", "workers", "cache-dir", "cache-stats",
		"cache-compact", "cpuprofile", "memprofile"}
	// board flags describe the interconnect every study but the fleet
	// prices on.
	board = []string{"topology", "network", "backhaul", "cluster", "netlist"}
	tiles = []string{"tile", "ffn-tile"}

	studies = []study{
		{"", slices.Concat(board, tiles, []string{"mode", "seqlen", "plan", "fault"}), plainSweep},
		{"autotune", slices.Concat(board, tiles, []string{"mode", "seqlen"}), autotuneSweep},
		{"autotune-session", slices.Concat(board, tiles, []string{"seqlen", "topk"}), sessionSweep},
		{"autotune-tiling", slices.Concat(board, []string{"mode", "seqlen", "topk"}), tilingSweep},
		{"replan", slices.Concat(board, tiles, []string{"seqlen", "topk", "fault"}), replanSweep},
		{"fleet", slices.Concat(tiles, []string{"rates", "requests", "seed", "groups", "max-batch",
			"fleet-autotune", "fleet-serial", "fault", "fault-at", "fault-group", "fault-replan"}), fleetSweep},
	}
)

// studyOf returns the study a flag name selects, or nil.
func studyOf(name string) *study {
	for i := range studies {
		if studies[i].flag == name {
			return &studies[i]
		}
	}
	return nil
}

// choose returns the study the set flags select: at most one study
// flag may be true, and every other set flag must be one the chosen
// study reads.
func choose(fs *flag.FlagSet) (*study, error) {
	chosen := &studies[0]
	var err error
	fs.Visit(func(f *flag.Flag) {
		s := studyOf(f.Name)
		if err != nil || s == nil || f.Value.String() != "true" {
			return
		}
		if chosen.flag != "" {
			err = fmt.Errorf("choose one study: %s and %s are both set", chosen, s)
		}
		chosen = s
	})
	fs.Visit(func(f *flag.Flag) {
		if err == nil && studyOf(f.Name) == nil &&
			!slices.Contains(shared, f.Name) && !slices.Contains(chosen.reads, f.Name) {
			err = fmt.Errorf("-%s is not read by %s", f.Name, chosen)
		}
	})
	return chosen, err
}

func main() {
	flag.Parse()
	st, err := choose(flag.CommandLine)
	if err != nil {
		fatal(err)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()
	evalpool.SetWorkers(*workers)
	store, err := openCache(*cacheDir)
	if err != nil {
		fatal(err)
	}
	defer printCacheStats(*cacheStats, store)
	defer func() {
		if err := compactCache(*compactDir, store); err != nil {
			fatal(err)
		}
	}()
	in, err := parseInput()
	if err != nil {
		fatal(err)
	}
	st.run(in)
}

// parseInput builds the one base system, the workload, the chip list
// and the fault set from the flags. Flags a study does not read keep
// their defaults (choose rejected them), which spell the paper's
// system.
func parseInput() (input, error) {
	var in input
	var err error
	in.base = core.DefaultSystem(1)
	if in.base.HW.Topology, err = hw.ParseTopology(*topoName); err != nil {
		return in, err
	}
	if in.base.HW.Network, err = buildNetwork(*netName, *cluster, *backhaul); err != nil {
		return in, err
	}
	if *netlist != "" {
		nl, err := resilience.LoadNetlist(*netlist)
		if err != nil {
			return in, err
		}
		if in.base.HW.Network, err = nl.Network(); err != nil {
			return in, err
		}
	}
	if *faultSpec != "" {
		if in.faults, err = resilience.ParseFaults(*faultSpec); err != nil {
			return in, err
		}
	}
	if in.base.Options.SyncPlan, err = collective.ParsePlan(*planSpec); err != nil {
		return in, err
	}
	if in.base.HW.Mem, err = buildMem(*memName, *memDepth, *memBanks, *memBPC, *memBurst, *memSetup, *memPJ, *tileSpec, *ffnTile); err != nil {
		return in, err
	}
	if in.wl.Model, err = model.ByName(*modelName); err != nil {
		return in, err
	}
	if in.wl.Mode, err = model.ParseMode(*modeName); err != nil {
		return in, err
	}
	in.wl.SeqLen = *seqLen
	for _, part := range strings.Split(*chipsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return in, fmt.Errorf("bad chip count %q: %v", part, err)
		}
		in.chips = append(in.chips, n)
	}
	return in, nil
}

// withChips returns the base system at n chips.
func (in input) withChips(n int) core.System {
	sys := in.base
	sys.Chips = n
	return sys
}

// plainSweep emits one CSV row per chip count: the workload's cost on
// the base system, with speedup against the first chip count. A
// -fault spec hands over to faultSweep.
func plainSweep(in input) {
	if len(in.faults) > 0 {
		faultSweep(in)
		return
	}
	reports, err := evalpool.Eval(in.base, in.wl, in.chips)
	if err != nil {
		fatal(err)
	}
	base := reports[0]

	t := report.NewTable("", "chips", "cycles", "ms", "speedup",
		"compute_cycles", "l2l1_cycles", "l3_cycles", "c2c_cycles",
		"energy_mj", "edp_js", "tier")
	for i, r := range reports {
		t.AddRow(in.chips[i], r.Cycles, r.Seconds*1e3, core.Speedup(base, r),
			r.Breakdown.Compute, r.Breakdown.L2L1, r.Breakdown.L3, r.Breakdown.C2C,
			r.Energy.Total()*1e3, r.EDP, r.Tier.String())
	}
	if err := t.CSV(os.Stdout); err != nil {
		fatal(err)
	}
}

// autotuneSweep emits one CSV row per chip count: the autotuned
// per-sync plan against the best uniform topology. The plan column
// joins assignments with "+" (the flag syntax's commas would split
// the CSV cell); ParsePlan accepts both separators, so the cell
// pastes straight back into -plan.
func autotuneSweep(in input) {
	t := report.NewTable("", "chips", "plan", "cycles", "ms",
		"best_uniform", "uniform_cycles", "margin")
	for _, n := range in.chips {
		res, err := explore.AutotunePlan(in.withChips(n), in.wl)
		if err != nil {
			fatal(fmt.Errorf("%d chips: %w", n, err))
		}
		t.AddRow(n, strings.ReplaceAll(res.Plan.String(), ",", "+"),
			res.Report.Cycles, res.Report.Seconds*1e3,
			res.BestUniform.String(), res.UniformReport.Cycles, res.Margin)
	}
	if err := t.CSV(os.Stdout); err != nil {
		fatal(err)
	}
}

// sessionSweep emits one CSV row per chip count: the jointly autotuned
// prefill+decode plan, its exact and predicted session cost, the best
// uniform session it beats, and the predict-then-verify search's
// exact-simulation bill against the naive joint grid. The plan column
// uses the "+"-joined spelling and pastes straight back into -plan.
func sessionSweep(in input) {
	t := report.NewTable("", "chips", "plan", "cycles", "predicted_cycles",
		"best_uniform", "uniform_cycles", "margin", "rank_acc", "exact_sims", "grid_sims")
	for _, n := range in.chips {
		res, err := explore.AutotuneSession(in.withChips(n), in.wl.Model,
			explore.SessionOptions{TopK: *topK, PromptSeqLen: in.wl.SeqLen})
		if err != nil {
			fatal(fmt.Errorf("%d chips: %w", n, err))
		}
		t.AddRow(n, strings.ReplaceAll(res.Plan.String(), ",", "+"),
			res.Cycles, res.PredictedCycles,
			res.BestUniform.String(), res.UniformCycles, res.Margin,
			res.RankAccuracy, res.ExactSims, res.GridSims)
	}
	if err := t.CSV(os.Stdout); err != nil {
		fatal(err)
	}
}

// tilingSweep emits one CSV row per chip count: the autotuned
// per-family weight-tile shapes under the DRAM hierarchy against the
// best uniform tiling. The attn/ffn cells use the KxN spelling and
// paste straight back into -tile / -ffn-tile.
func tilingSweep(in input) {
	if !in.base.HW.Mem.Enabled() {
		fatal(errors.New("-autotune-tiling needs the hierarchical memory model (-mem dram)"))
	}
	t := report.NewTable("", "chips", "attn_tile", "ffn_tile", "cycles", "ms",
		"best_uniform", "uniform_cycles", "margin", "rank_acc", "exact_sims", "grid_sims")
	for _, n := range in.chips {
		res, err := explore.AutotuneTiling(in.withChips(n), in.wl, explore.TilingOptions{TopK: *topK})
		if err != nil {
			fatal(fmt.Errorf("%d chips: %w", n, err))
		}
		t.AddRow(n, res.Attn.String(), res.FFN.String(),
			res.Cycles, res.Report.Seconds*1e3,
			res.BestUniform.String(), res.UniformCycles, res.Margin,
			res.RankAccuracy, res.ExactSims, res.GridSims)
	}
	if err := t.CSV(os.Stdout); err != nil {
		fatal(err)
	}
}

// faultSweep emits one CSV row per chip count: the exact cost of the
// workload on the board degraded by the -fault spec. The chips column
// is the pristine count; degraded_chips what survives the faults.
func faultSweep(in input) {
	t := report.NewTable("", "chips", "degraded_chips", "cycles", "ms",
		"compute_cycles", "l2l1_cycles", "l3_cycles", "c2c_cycles",
		"energy_mj", "edp_js", "tier")
	for _, n := range in.chips {
		deg, _, err := resilience.Degrade(in.withChips(n), in.wl.Model, in.faults...)
		if err != nil {
			fatal(fmt.Errorf("%d chips: %w", n, err))
		}
		r, err := evalpool.Run(deg, in.wl)
		if err != nil {
			fatal(fmt.Errorf("%d chips: %w", n, err))
		}
		t.AddRow(n, deg.Chips, r.Cycles, r.Seconds*1e3,
			r.Breakdown.Compute, r.Breakdown.L2L1, r.Breakdown.L3, r.Breakdown.C2C,
			r.Energy.Total()*1e3, r.EDP, r.Tier.String())
	}
	if err := t.CSV(os.Stdout); err != nil {
		fatal(err)
	}
}

// replanSweep emits one CSV row per chip count: the resilience margin
// of the -fault scenario — the stale pristine-tuned plan priced on the
// degraded board against re-planning for it. Plan cells use the
// "+"-joined spelling and paste straight back into -plan.
func replanSweep(in input) {
	if len(in.faults) == 0 {
		fatal(errors.New("-replan needs a -fault spec to degrade the board with"))
	}
	t := report.NewTable("", "chips", "degraded_chips", "faults", "stale_plan", "static_cycles",
		"adopted_plan", "adopted_cycles", "replan_pays", "margin", "margin_joules", "exact_sims")
	for _, n := range in.chips {
		study, err := resilience.ReplanStudy(in.withChips(n), in.wl.Model, in.faults,
			explore.SessionOptions{TopK: *topK, PromptSeqLen: in.wl.SeqLen})
		if err != nil {
			fatal(fmt.Errorf("%d chips: %w", n, err))
		}
		r := study.Replan
		static := 0.0
		if r.Static != nil {
			static = r.Static.Cycles
		}
		t.AddRow(n, study.DegradedChips,
			strings.ReplaceAll(resilience.FaultsString(study.Faults), ",", "+"),
			strings.ReplaceAll(study.Pristine.Plan.String(), ",", "+"), static,
			strings.ReplaceAll(r.AdoptedPlan.String(), ",", "+"), r.AdoptedCycles,
			r.ReplanPays, r.MarginCycles, r.MarginJoules, r.ExactSims)
	}
	if err := t.CSV(os.Stdout); err != nil {
		fatal(err)
	}
}

// fleetSweep emits one CSV row per offered arrival rate: the serving
// metrics of a chip-group fleet under a seeded Poisson trace. The plan
// column uses the "+"-joined spelling (empty when -fleet-autotune is
// off) and pastes straight back into -plan. A -fault plan adds its
// post-fault record in the trailing columns (zero rows when the fault
// never fired before the trace drained).
func fleetSweep(in input) {
	if len(in.chips) != 1 {
		fatal(fmt.Errorf("-fleet takes a single -chips value (group width), got %v", in.chips))
	}
	var fp *fleet.FaultPlan
	if len(in.faults) > 0 {
		fp = &fleet.FaultPlan{AtSeconds: *faultAt, Group: *faultGroup, Faults: in.faults, Replan: *faultTune}
	}
	var rateList []float64
	for _, part := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad rate %q: %v", part, err))
		}
		rateList = append(rateList, r)
	}
	// The CSV carries only the deterministic serving metrics — cache
	// counters go to stderr via -cache-stats — so a warm replay of the
	// same sweep is byte-identical (CI diffs cold vs warm).
	t := report.NewTable("", "offered_req_s", "achieved_req_s", "p50_s", "p99_s",
		"p50_ttft_s", "tok_s", "J_per_req", "mean_queue", "max_queue",
		"mean_batch", "util", "plan", "post_fault_chips", "post_fault_plan")
	for _, rate := range rateList {
		res, err := fleet.Run(fleet.Options{
			Trace: fleet.PoissonTrace(fleet.TraceOptions{
				Requests: *requests, RatePerSecond: rate, Seed: *seed,
			}),
			System:     in.withChips(in.chips[0]),
			Model:      in.wl.Model,
			Groups:     *groups,
			MaxBatch:   *maxBatch,
			Autotune:   *fleetTune,
			NoPrePrice: *fleetSlow,
			Fault:      fp,
		})
		if err != nil {
			fatal(fmt.Errorf("rate %g: %w", rate, err))
		}
		m := res.Metrics
		util := 0.0
		for _, u := range m.GroupUtilization {
			util += u
		}
		util /= float64(len(m.GroupUtilization))
		t.AddRow(rate, m.RequestsPerSecond, m.P50LatencySeconds, m.P99LatencySeconds,
			m.P50TTFTSeconds, m.TokensPerSecond, m.EnergyPerRequestJoules,
			m.MeanQueueDepth, m.MaxQueueDepth, m.MeanBatch, util,
			strings.ReplaceAll(res.Plan.String(), ",", "+"),
			res.PostFaultChips, strings.ReplaceAll(res.PostFaultPlan.String(), ",", "+"))
	}
	if err := t.CSV(os.Stdout); err != nil {
		fatal(err)
	}
}

// buildMem maps the -mem* / -tile flags to a memory hierarchy. The
// dram profile starts from the LPDDR5 preset and applies only the
// knobs the user pinned, so a bare "-mem dram" reproduces the
// library's hw.LPDDR5() numbers; under the default flat profile every
// knob must stay at its default (the flat model has none of them).
func buildMem(name string, depth, banks int, bpc float64, burst, setup int, pj float64, tile, ffnTile string) (hw.MemHierarchy, error) {
	profile, err := hw.ParseMemProfile(name)
	if err != nil {
		return hw.MemHierarchy{}, err
	}
	if profile == hw.MemFlat {
		if depth != 0 || banks != 0 || bpc != 0 || burst != 0 || setup != -1 || pj != 0 || tile != "" || ffnTile != "" {
			return hw.MemHierarchy{}, fmt.Errorf("the flat memory model has no knobs: drop the -mem-*/-tile flags or select -mem dram")
		}
		return hw.MemHierarchy{}, nil
	}
	m := hw.LPDDR5()
	if depth != 0 {
		m.PrefetchDepth = depth
	}
	if banks != 0 {
		m.SRAMBanks = banks
	}
	if bpc != 0 {
		m.DRAMBytesPerCycle = bpc
	}
	if burst != 0 {
		m.DRAMBurstBytes = burst
	}
	if setup != -1 {
		m.DRAMBurstSetupCycles = setup
	}
	if pj != 0 {
		m.DRAMPJPerByte = pj
	}
	ta, err := memsim.ParseTiling(tile)
	if err != nil {
		return hw.MemHierarchy{}, err
	}
	tf, err := memsim.ParseTiling(ffnTile)
	if err != nil {
		return hw.MemHierarchy{}, err
	}
	m.TileK, m.TileN = ta.K, ta.N
	m.FFNTileK, m.FFNTileN = tf.K, tf.N
	if err := m.Validate(); err != nil {
		return hw.MemHierarchy{}, err
	}
	return m, nil
}

// buildNetwork maps the -network / -cluster / -backhaul flags to a
// network description. The per-edge table profile has no CLI spelling
// (it needs a wiring list); construct it through the library API.
func buildNetwork(name string, clusterSize int, backhaul float64) (hw.Network, error) {
	profile, err := hw.ParseNetworkProfile(name)
	if err != nil {
		return hw.Network{}, err
	}
	switch profile {
	case hw.NetUniform:
		return hw.UniformNetwork(hw.MIPI()), nil
	case hw.NetClustered:
		if backhaul < 1 {
			return hw.Network{}, fmt.Errorf("backhaul slowdown %g must be >= 1", backhaul)
		}
		return hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(backhaul), clusterSize), nil
	default:
		return hw.Network{}, fmt.Errorf("network profile %s has no flag spelling (use the mcudist.TableNetwork API)", profile)
	}
}

// openCache attaches the persistent result store to the evaluation
// pool: the -cache-dir flag, or the MCUDIST_CACHE environment variable
// when the flag is empty, or nothing (the cache stays off).
func openCache(dir string) (*resultstore.Store, error) {
	if dir == "" {
		dir = os.Getenv("MCUDIST_CACHE")
	}
	if dir == "" {
		return nil, nil
	}
	store, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	evalpool.SetStore(store)
	return store, nil
}

// printCacheStats reports the cache-tier split on stderr (stdout
// carries the CSV), in a grep-friendly key=value line, so sims-saved
// claims are measurable from the CLI: a fully warm store shows
// exact_sims=0.
func printCacheStats(show bool, store *resultstore.Store) {
	if !show {
		return
	}
	st := evalpool.GetStats()
	fmt.Fprintf(os.Stderr, "cache-stats: memory_hits=%d disk_hits=%d exact_sims=%d",
		st.MemoryHits, st.DiskHits, st.Simulations)
	if store != nil {
		fmt.Fprintf(os.Stderr, " store_entries=%d store_bytes=%d store_dir=%s",
			store.Len(), store.SizeBytes(), store.Dir())
	} else {
		fmt.Fprint(os.Stderr, " store=off")
	}
	fmt.Fprintln(os.Stderr)
}

// compactCache rewrites the attached store into dir, dropping entries
// whose digest version the current binary would never read — the
// garbage a long-lived CI cache accumulates across digest bumps.
func compactCache(dir string, store *resultstore.Store) error {
	if dir == "" {
		return nil
	}
	if store == nil {
		return fmt.Errorf("-cache-compact needs an attached store (-cache-dir or $MCUDIST_CACHE)")
	}
	dst, err := store.CompactTo(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cache-compact: entries=%d bytes=%d dir=%s\n",
		dst.Len(), dst.SizeBytes(), dst.Dir())
	return dst.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
