// Package mcudist reproduces "Distributed Inference with Minimal
// Off-Chip Traffic for Transformers on Low-Power MCUs" (DATE 2025): a
// tensor-parallel partitioning scheme that runs small transformers
// across a network of Siracusa-like MCUs with no weight replication
// and two synchronizations per block, a multi-chip performance
// simulator on per-device timelines, the paper's analytical energy model, and a
// functional distributed executor that proves the partitioned network
// computes exactly what the single-device network computes.
//
// Quick start:
//
//	rep, err := mcudist.Run(
//		mcudist.DefaultSystem(8),
//		mcudist.Workload{Model: mcudist.TinyLlama42M(), Mode: mcudist.Autoregressive},
//	)
//
// See the examples directory for runnable scenarios and cmd/paperrepro
// for regenerating every table and figure of the paper.
package mcudist

import (
	"io"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/deploy"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/fleet"
	"mcudist/internal/hw"
	"mcudist/internal/memsim"
	"mcudist/internal/model"
	"mcudist/internal/numeric"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
	"mcudist/internal/resilience"
	"mcudist/internal/resultstore"
	"mcudist/internal/tensor"
)

// Simulation API.
type (
	// System describes the multi-chip platform and strategy.
	System = core.System
	// Workload selects a model, an inference mode, and a sequence
	// length.
	Workload = core.Workload
	// Report is the consolidated result of one simulated forward.
	Report = core.Report
	// HWParams is the hardware description consumed by the simulator.
	HWParams = hw.Params
	// DeployOptions tunes the deployment planner.
	DeployOptions = deploy.Options
	// Tier is a chip's weight-placement regime.
	Tier = deploy.Tier
	// Topology selects the interconnect shape of the chip-to-chip
	// network (System.HW.Topology; TopologyTree is the paper's).
	Topology = hw.Topology
	// LinkClass is one class of chip-to-chip link: bandwidth, setup
	// cycles, and pJ/B.
	LinkClass = hw.LinkClass
	// Network assigns a LinkClass to every directed chip-to-chip edge
	// (System.HW.Network; the uniform MIPI network is the paper's).
	Network = hw.Network
	// NetworkProfile selects how a Network assigns classes to edges:
	// uniform, two-tier clustered, or an explicit per-edge table.
	NetworkProfile = hw.NetworkProfile
	// Edge is one directed chip pair of a per-edge link table.
	Edge = hw.Edge
	// SyncClass classifies one chip synchronization (prefill vs
	// decode, MHSA vs FFN, the replicated exchanges).
	SyncClass = collective.SyncClass
	// SyncPlan binds synchronization classes to interconnect
	// topologies (System.Options.SyncPlan); the zero value executes
	// every synchronization on the run topology. (The root name Plan
	// is the partition plan.)
	SyncPlan = collective.Plan
	// SyncClassStats is one class's share of a report's
	// synchronization and link accounting (Report.ByClass).
	SyncClassStats = perfsim.ClassStats
	// AutotuneResult is the outcome of a per-sync plan autotuning.
	AutotuneResult = explore.AutotuneResult
	// ClassChoice is one per-class decision of an autotuned plan.
	ClassChoice = explore.ClassChoice
	// SessionOptions tunes the joint prefill+decode autotuner (the
	// TopK pruning knob, the Exhaustive ground-truth mode, sequence
	// lengths).
	SessionOptions = explore.SessionOptions
	// SessionResult is the outcome of a joint-session plan autotuning:
	// the winning plan, its margin over the best uniform session, the
	// predictor's rank accuracy, and the exact-simulation bill.
	SessionResult = explore.SessionResult
	// SessionCandidate is one exactly-verified candidate of a session
	// autotuning: plan, predicted cycles, exact cycles.
	SessionCandidate = explore.SessionCandidate
	// SessionClassCost is one entry of the session predictor's
	// per-class cost vector (the measured cycle delta of one
	// class-to-topology binding).
	SessionClassCost = explore.ClassCost
	// VerifiedPlan is one exactly-evaluated joint plan next to the
	// surrogate's predictions for it.
	VerifiedPlan = explore.VerifiedPlan
	// PlanFrontierOptions tunes PlanFrontier (extra networks, seed
	// size, exhaustive ground-truth mode, sequence lengths).
	PlanFrontierOptions = explore.PlanFrontierOptions
	// PlanFrontierResult is a surrogate-first plan frontier scan: every
	// verified (network, chips, plan) point, Pareto marks across the
	// union, and the exact-evaluation bill against the naive grid.
	PlanFrontierResult = explore.PlanFrontierResult
	// PlanPoint is one verified point of a plan frontier scan.
	PlanPoint = explore.PlanPoint
	// MemHierarchy describes the DRAM-backed memory hierarchy behind
	// the streamed weight tier (System.HW.Mem): the DRAM channel's
	// bandwidth / burst / prefetch-depth knobs, the SRAM bank count,
	// and the per-layer-family tile shapes. The zero value keeps the
	// paper's flat off-chip model, byte-identical.
	MemHierarchy = hw.MemHierarchy
	// MemProfile selects the off-chip memory model (flat | dram).
	MemProfile = hw.MemProfile
	// Tiling is one streamed-GEMM tile shape (K x N weight tile); the
	// zero value auto-sizes to the stream-buffer slot.
	Tiling = memsim.Tiling
	// TilingOptions tunes the per-family tiling autotuner (the TopK
	// pruning knob, the per-family Candidates cap, the Exhaustive
	// ground-truth mode).
	TilingOptions = explore.TilingOptions
	// TilingResult is the outcome of a per-family tiling autotuning:
	// the winning (attention, FFN) tile pair, its margin over the best
	// uniform tiling, the closed-form predictor's rank accuracy, and
	// the exact-simulation bill.
	TilingResult = explore.TilingResult
	// TilingCandidate is one exactly-verified tiling pair.
	TilingCandidate = explore.TilingCandidate
	// ResultStore is the persistent content-addressed result cache
	// (see OpenResultStore).
	ResultStore = resultstore.Store
	// EvalStats is the evaluation engine's cache-tier counters
	// (memory hits / disk hits / exact simulations).
	EvalStats = evalpool.Stats
)

// Fleet-serving API: event-driven serving of a request stream over
// chip groups with continuous batching of decode steps, every step
// priced through the cached cost oracle (see RunFleet).
type (
	// FleetRequest is one serving request: arrival time, prompt
	// length, and decode budget.
	FleetRequest = fleet.Request
	// FleetTrace is a request stream (see FleetPoissonTrace).
	FleetTrace = fleet.Trace
	// FleetTraceOptions parameterizes the seeded Poisson generator.
	FleetTraceOptions = fleet.TraceOptions
	// FleetOptions configures a fleet run: the trace, the per-group
	// system, group count, decode micro-batch cap, and autotuning.
	FleetOptions = fleet.Options
	// FleetMetrics is the deterministic serving-metric set: latency
	// percentiles, TTFT, tokens/sec, energy, queue depth over time,
	// and per-group utilization.
	FleetMetrics = fleet.Metrics
	// FleetQueueSample is one point of the queue-depth timeline.
	FleetQueueSample = fleet.QueueSample
	// FleetResult pairs the metrics with oracle accounting (distinct
	// step shapes, exact simulations) and the adopted collective plan.
	FleetResult = fleet.Result
	// FleetFaultPlan injects a mid-trace hardware fault into one chip
	// group (FleetOptions.Fault): at AtSeconds the group's system is
	// degraded by Faults and optionally re-planned.
	FleetFaultPlan = fleet.FaultPlan
)

// Resilience API: measured netlist import, deterministic fault
// injection, and the re-planning margin study (see Perturb, Degrade,
// ReplanStudy).
type (
	// Netlist is a measured per-edge board wiring: a chip count, named
	// link classes, and the directed edges they wire (see ParseNetlist,
	// LoadNetlist; Netlist.Network registers it as a table Network).
	Netlist = resilience.Netlist
	// Fault is one deterministic hardware fault: a dropped chip, a
	// slowed edge, or a compute straggler (see DropChip, SlowEdge,
	// StraggleChip, ParseFaults).
	Fault = resilience.Fault
	// FaultKind discriminates the fault families.
	FaultKind = resilience.FaultKind
	// ResilienceStudy is one resilience-margin measurement: the
	// pristine autotune, the fault set, and the stale-vs-replanned
	// comparison on the degraded board.
	ResilienceStudy = resilience.Study
	// ReplanResult compares serving a stale plan on a degraded system
	// against re-planning for it (ResilienceStudy.Replan); MarginCycles
	// is the resilience margin.
	ReplanResult = explore.ReplanResult
)

// Fault kinds.
const (
	FaultDropChip = resilience.FaultDropChip
	FaultSlowEdge = resilience.FaultSlowEdge
	FaultStraggle = resilience.FaultStraggle
)

// Model description API.
type (
	// Config is a transformer model description.
	Config = model.Config
	// Mode is the inference mode.
	Mode = model.Mode
	// Strategy selects the distribution scheme.
	Strategy = partition.Strategy
	// Plan is a placement of a model onto chips.
	Plan = partition.Plan
	// Weights holds float parameters for functional runs.
	Weights = model.Weights
	// KVCache is the reference autoregressive cache.
	KVCache = model.KVCache
	// Mat is a row-major float32 matrix.
	Mat = tensor.Mat
	// Executor runs the distributed forward pass numerically.
	Executor = numeric.Executor
	// GenerationReport aggregates a prefill + decode session.
	GenerationReport = core.GenerationReport
	// ExplorePoint is one configuration of a design-space sweep.
	ExplorePoint = explore.Point
)

// Inference modes.
const (
	Autoregressive = model.Autoregressive
	Prompt         = model.Prompt
)

// Distribution strategies.
const (
	TensorParallel = partition.TensorParallel
	Replicated     = partition.Replicated
	Pipeline       = partition.Pipeline
)

// Placement tiers.
const (
	TierStreamed       = deploy.TierStreamed
	TierResidentSingle = deploy.TierResidentSingle
	TierDoubleBuffered = deploy.TierDoubleBuffered
	TierResidentAll    = deploy.TierResidentAll
)

// Interconnect topologies.
const (
	// TopologyTree is the paper's hierarchical reduction tree in
	// groups of HW.GroupSize (the default).
	TopologyTree = hw.TopoTree
	// TopologyStar is the flat all-to-one reduction the paper
	// rejects for scalability.
	TopologyStar = hw.TopoStar
	// TopologyRing is the bandwidth-optimal ring all-reduce.
	TopologyRing = hw.TopoRing
	// TopologyFullyConnected is the all-to-all pairwise exchange.
	TopologyFullyConnected = hw.TopoFullyConnected
)

// Synchronization classes (the per-sync collective plan axis).
const (
	// SyncPrefillMHSA is the post-attention all-reduce of a
	// prompt-mode block.
	SyncPrefillMHSA = collective.PrefillMHSA
	// SyncPrefillFFN is the post-FFN all-reduce of a prompt-mode
	// block.
	SyncPrefillFFN = collective.PrefillFFN
	// SyncDecodeMHSA is the post-attention all-reduce of an
	// autoregressive step.
	SyncDecodeMHSA = collective.DecodeMHSA
	// SyncDecodeFFN is the post-FFN all-reduce of an autoregressive
	// step.
	SyncDecodeFFN = collective.DecodeFFN
	// SyncKVExchange is the replicated baseline's K/V context
	// exchange.
	SyncKVExchange = collective.KVExchange
	// SyncOutputExchange is the replicated baseline's output row
	// exchange.
	SyncOutputExchange = collective.OutputExchange
)

// Network profiles.
const (
	// NetworkUniform assigns one link class to every edge (the
	// paper's all-MIPI assumption, and the default).
	NetworkUniform = hw.NetUniform
	// NetworkClustered is the two-tier board: fast links inside
	// clusters, a slower backhaul between them.
	NetworkClustered = hw.NetClustered
	// NetworkTable resolves edges from an explicit per-edge table
	// (measured board wirings).
	NetworkTable = hw.NetTable
)

// Run plans, simulates, and evaluates one workload on one system.
// Like Sweep, it is served from the process-wide memoized cache: a
// configuration already evaluated by any Run, Sweep, or experiment is
// returned instantly, and the report may be shared — treat it as
// immutable.
func Run(sys System, wl Workload) (*Report, error) { return evalpool.Run(sys, wl) }

// Sweep runs a workload across several chip counts, evaluating the
// configurations concurrently on the shared worker pool (results are
// identical to the serial path and returned in chip-list order).
//
// Returned reports come from a process-wide memoized cache and may be
// shared with other Sweep, Frontier, or experiment calls: treat them
// as immutable. Long-lived processes sweeping many distinct
// configurations can release the cache with ResetCache.
func Sweep(base System, wl Workload, chips []int) ([]*Report, error) {
	return evalpool.Eval(base, wl, chips)
}

// SetWorkers bounds the concurrency of Sweep and every experiment
// (<= 0 restores the GOMAXPROCS default). The accumulated report
// cache is dropped.
func SetWorkers(n int) { evalpool.SetWorkers(n) }

// ResetCache drops every memoized report, releasing the memory a
// long-lived design-space exploration accumulates.
func ResetCache() { evalpool.ResetCache() }

// OpenResultStore opens (creating if needed) the persistent
// content-addressed result store in dir — an append-only log of
// simulation reports keyed by a versioned digest of the exact
// configuration, shared safely between concurrent processes. Attach
// it with SetResultStore to make every evaluation in this process
// consult and fill it.
func OpenResultStore(dir string) (*ResultStore, error) { return resultstore.Open(dir) }

// SetResultStore attaches a persistent result store as the evaluation
// engine's second cache tier: every memory miss is looked up in the
// store before simulating, and every fresh simulation is appended for
// later processes. nil detaches. The attachment survives SetWorkers.
func SetResultStore(s *ResultStore) { evalpool.SetStore(s) }

// CacheStats returns the evaluation engine's lifetime cache-tier
// counters — how many requests the memory memo answered, how many the
// persistent store answered, and how many exact simulations ran. A
// fully warm store shows Simulations unchanged across a whole rerun.
func CacheStats() EvalStats { return evalpool.GetStats() }

// Speedup returns base.Cycles / r.Cycles.
func Speedup(base, r *Report) float64 { return core.Speedup(base, r) }

// DefaultSystem returns the paper's Siracusa-based system with n
// chips and the tensor-parallel strategy.
func DefaultSystem(n int) System { return core.DefaultSystem(n) }

// Siracusa returns the paper's hardware parameter set.
func Siracusa() HWParams { return hw.Siracusa() }

// TinyLlama42M returns the paper's main decoder workload.
func TinyLlama42M() Config { return model.TinyLlama42M() }

// TinyLlamaScaled64 returns the 64-head scalability-study variant.
func TinyLlamaScaled64() Config { return model.TinyLlamaScaled64() }

// MobileBERT512 returns the paper's encoder workload.
func MobileBERT512() Config { return model.MobileBERT512() }

// SmolLM135M returns a grouped-query-attention SLM preset (the GQA
// extension of the partitioning scheme).
func SmolLM135M() Config { return model.SmolLM135M() }

// EdgeLlama1B returns the bigger-than-SRAM scenario tier: a
// billion-parameter Llama-3.2-1B-shaped decoder whose block weights
// never fit a chip's L2 at any chip count, so every deployment
// streams from off-chip — the regime the DRAM-backed memory
// hierarchy (MemHierarchy, LPDDR5) exists to price.
func EdgeLlama1B() Config { return model.EdgeLlama1B() }

// PaperSeqLen returns the sequence length the paper uses for a model
// and mode.
func PaperSeqLen(c Config, m Mode) int { return model.PaperSeqLen(c, m) }

// NewWeights builds deterministic synthetic weights for functional
// runs.
func NewWeights(cfg Config, seed int64) *Weights { return model.NewWeights(cfg, seed) }

// Forward runs the reference single-device prompt-mode forward pass.
func Forward(w *Weights, x *Mat, cache *KVCache) *Mat { return model.Forward(w, x, cache) }

// ForwardStep runs one reference autoregressive step.
func ForwardStep(w *Weights, x *Mat, cache *KVCache) *Mat { return model.ForwardStep(w, x, cache) }

// NewKVCache returns an empty reference cache.
func NewKVCache(cfg Config) *KVCache { return model.NewKVCache(cfg) }

// NewPlan builds the paper's tensor-parallel partition of cfg across
// n chips.
func NewPlan(cfg Config, n int) (*Plan, error) { return partition.NewTensorParallel(cfg, n) }

// NewExecutor distributes weights per the plan for functional runs.
func NewExecutor(w *Weights, p *Plan) (*Executor, error) { return numeric.NewExecutor(w, p) }

// RandomInput returns a deterministic random activation matrix
// (rows × cfg.E).
func RandomInput(cfg Config, rows int, seed int64) *Mat {
	return tensor.Random(rows, cfg.E, 1, seed)
}

// MaxAbsDiff returns the largest absolute elementwise difference
// between two matrices (for verifying distributed against reference).
func MaxAbsDiff(a, b *Mat) float64 { return tensor.MaxAbsDiff(a, b) }

// RunGeneration simulates a full interactive session: prompt prefill
// followed by genTokens autoregressive steps with growing context.
func RunGeneration(sys System, cfg Config, promptLen, genTokens int) (*GenerationReport, error) {
	return core.RunGeneration(sys, cfg, promptLen, genTokens)
}

// MinChipsOffChipFree returns the smallest chip count (≤ maxChips)
// that keeps off-chip traffic off the runtime critical path.
func MinChipsOffChipFree(base System, wl Workload, maxChips int) (*ExplorePoint, error) {
	return explore.MinChipsOffChipFree(base, wl, maxChips)
}

// Frontier evaluates the workload at the given chip counts and marks
// latency/energy Pareto-optimal configurations.
func Frontier(base System, wl Workload, chips []int) ([]ExplorePoint, error) {
	return explore.Frontier(base, wl, chips)
}

// LegalChipCounts returns the chip counts the tensor-parallel plan
// accepts for cfg, up to max.
func LegalChipCounts(cfg Config, max int) []int {
	return explore.LegalChipCounts(cfg, max)
}

// Topologies returns every supported interconnect shape, in enum
// order — the design-space exploration axis next to the chip count.
func Topologies() []Topology { return hw.Topologies() }

// ParseTopology maps a command-line spelling (tree | star | ring |
// fully-connected) to a Topology.
func ParseTopology(s string) (Topology, error) { return hw.ParseTopology(s) }

// SyncClasses returns every synchronization class, in enum order —
// the axis a per-sync collective plan binds topologies on.
func SyncClasses() []SyncClass { return collective.Classes() }

// ParsePlan parses the command-line plan syntax, e.g.
// "prefill=ring,decode=tree" (group spellings prefill / decode / all
// next to the six exact class names; topologies in every spelling
// ParseTopology accepts). The empty string is the zero plan.
func ParsePlan(s string) (SyncPlan, error) { return collective.ParsePlan(s) }

// UniformPlan binds every synchronization class to one topology —
// behaviorally identical to selecting it as System.HW.Topology.
func UniformPlan(t Topology) SyncPlan { return collective.Uniform(t) }

// AutotunePlan exhaustively enumerates topologies over the
// synchronization classes the workload executes and returns the
// winning per-sync plan with its margin over the best uniform
// topology. Set the result on System.Options.SyncPlan to run it.
func AutotunePlan(base System, wl Workload) (*AutotuneResult, error) {
	return explore.AutotunePlan(base, wl)
}

// AutotuneSession tunes the collective plan of a whole generation
// session — one prompt prefill plus one decode step — jointly over
// the full class × topology grid, using a per-class cost predictor to
// rank the joint candidates and exact simulations only for the
// predicted top-K plus the uniform baselines (the winner is always
// chosen on exact cycles). DefaultSessionTopK candidates are verified
// when opts.TopK is zero; opts.Exhaustive enumerates the whole grid
// exactly instead. Set the returned Plan on System.Options.SyncPlan
// to deploy it.
func AutotuneSession(base System, cfg Config, opts SessionOptions) (*SessionResult, error) {
	return explore.AutotuneSession(base, cfg, opts)
}

// DefaultSessionTopK is the number of predicted-best candidates
// AutotuneSession verifies exactly when SessionOptions.TopK is zero.
const DefaultSessionTopK = explore.DefaultSessionTopK

// PlanFrontier scans the joint plan grid across networks × chip
// counts surrogate-first: fit a cost model per cell, verify only the
// plans that could plausibly reach the latency/energy Pareto front,
// and mark the front across the union on exact numbers. On the pinned
// operating points the front is identical to exhaustive enumeration
// at a fraction of the evaluations.
func PlanFrontier(base System, cfg Config, chips []int, opts PlanFrontierOptions) (*PlanFrontierResult, error) {
	return explore.PlanFrontier(base, cfg, chips, opts)
}

// LPDDR5 returns a representative DRAM-backed memory hierarchy for
// the streamed weight tier: an LPDDR5-class channel (8 B/cycle, 512 B
// bursts, 96-cycle burst setup, prefetch depth 2, 60 pJ/B) feeding an
// 8-bank L1 arbiter. Set it on System.HW.Mem to replace the paper's
// flat off-chip pricing with tiled double-buffered streaming.
func LPDDR5() MemHierarchy { return hw.LPDDR5() }

// ParseMemProfile maps a command-line spelling (flat | dram, with the
// lpddr5 / hierarchy / tiled aliases) to a MemProfile.
func ParseMemProfile(s string) (MemProfile, error) { return hw.ParseMemProfile(s) }

// ParseTiling parses the command-line tile-shape syntax "KxN" (e.g.
// "256x128"); "auto" or the empty string is the auto-sized zero
// tiling.
func ParseTiling(s string) (Tiling, error) { return memsim.ParseTiling(s) }

// AutotuneTiling tunes the memory hierarchy's tile shapes per layer
// family — one tiling for the attention projections, one for the
// feed-forward matrices — for a streamed-tier deployment, with zero
// probe simulations: closed-form tile-plan makespans rank the
// candidate pairs and only the predicted top-K plus the best uniform
// tilings are verified exactly. Set HW.Mem.TileK/TileN and
// FFNTileK/FFNTileN from the returned pair to deploy the winner.
func AutotuneTiling(base System, wl Workload, opts TilingOptions) (*TilingResult, error) {
	return explore.AutotuneTiling(base, wl, opts)
}

// DefaultTilingTopK is the number of predicted-best tiling pairs
// AutotuneTiling verifies exactly when TilingOptions.TopK is zero.
const DefaultTilingTopK = explore.DefaultTilingTopK

// MIPI returns the paper's chip-to-chip link class: 0.5 GB/s, 256
// setup cycles, 100 pJ/B.
func MIPI() LinkClass { return hw.MIPI() }

// UniformNetwork wires every edge with one link class — the paper's
// network and the default (Siracusa() uses UniformNetwork(MIPI())).
func UniformNetwork(c LinkClass) Network { return hw.UniformNetwork(c) }

// ClusteredNetwork builds the two-tier board: consecutive clusters of
// clusterSize chips wired with local internally and backhaul between
// clusters.
func ClusteredNetwork(local, backhaul LinkClass, clusterSize int) Network {
	return hw.ClusteredNetwork(local, backhaul, clusterSize)
}

// TableNetwork registers an explicit per-edge link table (a measured
// board wiring) and returns the Network referencing it; schedules
// that route over unwired edges are rejected at lowering time.
func TableNetwork(edges map[Edge]LinkClass) (Network, error) { return hw.TableNetwork(edges) }

// ParseNetworkProfile maps a command-line spelling (uniform |
// clustered | table) to a NetworkProfile.
func ParseNetworkProfile(s string) (NetworkProfile, error) { return hw.ParseNetworkProfile(s) }

// RunFleet serves a request trace on a fleet of chip groups with
// continuous batching of decode steps. Every step is priced through
// the cached cost oracle — the memory memo, the persistent result
// store (SetResultStore), then exact simulation — so a warm store
// replays any trace length with zero exact simulations. Metrics are a
// pure function of the trace, the system, and the options: identical
// across runs, worker counts, and cache states.
func RunFleet(opts FleetOptions) (*FleetResult, error) { return fleet.Run(opts) }

// FleetPoissonTrace generates a seeded Poisson request stream with
// mixed prompt lengths and decode budgets; equal options yield
// byte-identical traces.
func FleetPoissonTrace(opts FleetTraceOptions) FleetTrace { return fleet.PoissonTrace(opts) }

// TorusNetwork wires a dimX x dimY 2D torus: each chip links to its
// four row/column neighbours with wraparound, all edges one class.
func TorusNetwork(dimX, dimY int, c LinkClass) (Network, error) {
	return hw.TorusNetwork(dimX, dimY, c)
}

// DragonflyNetwork wires groups all-to-all internally with local links
// and connects each group pair by one global link between
// representative chips.
func DragonflyNetwork(groups, perGroup int, local, global LinkClass) (Network, error) {
	return hw.DragonflyNetwork(groups, perGroup, local, global)
}

// NetworkEdges materialises any Network into its explicit per-edge
// link table over n chips — the bridge from generated or profiled
// topologies to netlists and fault perturbation.
func NetworkEdges(net Network, n int) (map[Edge]LinkClass, error) {
	return hw.NetworkEdges(net, n)
}

// ParseNetlist reads the plain-text netlist format — `chips N`, named
// `class` lines, and `link from to class [bidi]` edges — into a
// Netlist.
func ParseNetlist(r io.Reader) (*Netlist, error) { return resilience.ParseNetlist(r) }

// LoadNetlist reads a netlist file from disk.
func LoadNetlist(path string) (*Netlist, error) { return resilience.LoadNetlist(path) }

// NetlistFromNetwork snapshots any Network over n chips into an
// explicit Netlist, inferring class names from link parameters.
func NetlistFromNetwork(net Network, n int) (*Netlist, error) {
	return resilience.NetlistFromNetwork(net, n)
}

// DropChip marks chip i failed: Perturb removes it and renumbers the
// survivors, re-routing pipeline chains through surviving paths.
func DropChip(i int) Fault { return resilience.DropChip(i) }

// SlowEdge degrades the from->to link by factor (>= 1): bandwidth
// divided, setup multiplied.
func SlowEdge(from, to int, factor float64) Fault { return resilience.SlowEdge(from, to, factor) }

// StraggleChip slows chip i's compute by factor (>= 1).
func StraggleChip(i int, factor float64) Fault { return resilience.StraggleChip(i, factor) }

// ParseFaults parses the CLI fault spelling — comma-separated
// `drop:3`, `slow:0-1x10`, `straggle:2x2` terms — into a fault list.
func ParseFaults(spec string) ([]Fault, error) { return resilience.ParseFaults(spec) }

// FaultsString renders a fault list back to its canonical CLI
// spelling; ParseFaults round-trips it.
func FaultsString(faults []Fault) string { return resilience.FaultsString(faults) }

// Perturb applies deterministic faults to a system, rewriting its
// per-edge link table (and compute throughput for stragglers) and
// returning the degraded system plus the old->new chip renumbering.
// The degraded network always gets a fresh table digest, so perturbed
// results never collide with pristine ones in the result store.
func Perturb(sys System, faults ...Fault) (System, []int, error) {
	return resilience.Perturb(sys, faults...)
}

// Degrade is Perturb followed by shrinking the deployment to the
// largest legal chip count the surviving board supports — the system
// actually served after a mid-trace fault.
func Degrade(sys System, cfg Config, faults ...Fault) (System, []int, error) {
	return resilience.Degrade(sys, cfg, faults...)
}

// ReplanStudy runs the full resilience measurement: autotune the
// pristine system, inject the faults, and compare stale-vs-replanned
// service on the degraded board.
func ReplanStudy(sys System, cfg Config, faults []Fault, opts SessionOptions) (*ResilienceStudy, error) {
	return resilience.ReplanStudy(sys, cfg, faults, opts)
}
