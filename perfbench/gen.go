package main

import (
	"fmt"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// sweepModels, sweepChips, ... are the sweep-cold axes. Every seed
// draws from the same axes with the same per-cell counts, so two seeds
// differ only in which legal combinations fill each cell.
var (
	sweepModels = []func() model.Config{
		model.TinyLlama42M, model.TinyLlamaScaled64, model.MobileBERT512, model.SmolLM135M,
	}
	// sweepBatches lists the modes: 0 is a prompt pass, n > 0 an
	// autoregressive decode step of micro-batch width n.
	sweepBatches    = []int{0, 1, 2, 4, 8}
	sweepChips      = []int{1, 2, 4, 8, 16, 32, 64}
	sweepNets       = []string{"uniform", "clustered4x10", "torus", "dragonfly"}
	sweepMems       = []string{"flat", "lpddr5"}
	sweepStrategies = []partition.Strategy{partition.TensorParallel, partition.Pipeline, partition.Replicated}
)

// spec is one sweep point as indices into the axes above.
type spec struct {
	Model, Batch, Chips, Topo, Net, Mem, Strategy int
}

func (s spec) String() string {
	return fmt.Sprintf("%s/b%d/%dc/%s/%s/%s/%s",
		sweepModels[s.Model]().Name, sweepBatches[s.Batch], sweepChips[s.Chips],
		hw.Topology(s.Topo), sweepNets[s.Net], sweepMems[s.Mem], sweepStrategies[s.Strategy])
}

// networks builds each wiring once per chip count: table networks
// (torus, dragonfly) register a per-edge table, and rebuilding them per
// point would only re-register the same digest.
type networks map[[2]int]hw.Network

func (nets networks) get(kind, n int) (hw.Network, bool) {
	key := [2]int{kind, n}
	if net, ok := nets[key]; ok {
		return net, true
	}
	mipi := hw.MIPI()
	var net hw.Network
	var err error
	switch sweepNets[kind] {
	case "uniform":
		net = hw.UniformNetwork(mipi)
	case "clustered4x10":
		net = hw.ClusteredNetwork(mipi, mipi.Slower(10), 4)
	case "torus":
		if n < 4 {
			return hw.Network{}, false
		}
		x := 1
		for x*x < n {
			x *= 2
		}
		net, err = hw.TorusNetwork(x, n/x, mipi)
	case "dragonfly":
		if n < 4 {
			return hw.Network{}, false
		}
		g := 1
		for g*g*2 <= n {
			g *= 2
		}
		net, err = hw.DragonflyNetwork(g, n/g, mipi, mipi.Slower(10))
	}
	if err != nil {
		return hw.Network{}, false
	}
	nets[key] = net
	return net, true
}

// point turns a spec into the (System, Workload) pair the oracle
// evaluates.
func (s spec) point(nets networks) (core.System, core.Workload, bool) {
	n := sweepChips[s.Chips]
	net, ok := nets.get(s.Net, n)
	if !ok {
		return core.System{}, core.Workload{}, false
	}
	sys := core.DefaultSystem(n)
	sys.Strategy = sweepStrategies[s.Strategy]
	sys.HW.Topology = hw.Topology(s.Topo)
	sys.HW.Network = net
	if sweepMems[s.Mem] == "lpddr5" {
		sys.HW.Mem = hw.LPDDR5()
	}
	wl := core.Workload{Model: sweepModels[s.Model](), Mode: model.Prompt}
	if b := sweepBatches[s.Batch]; b > 0 {
		wl.Mode = model.Autoregressive
		wl.Batch = b
	}
	return sys, wl, true
}

// legal reports whether the planner and the wiring accept the point:
// the deployment lowers, and the collective schedule (or, for the
// pipeline, the handoff chain) routes over the network's edges.
func legal(sys core.System, wl core.Workload) bool {
	if sys.Strategy == partition.Pipeline {
		if _, err := interconnect.CachedPipelineChain(sys.HW.Network, sys.Chips); err != nil {
			return false
		}
	} else if _, err := interconnect.CachedSchedule(sys.HW, sys.Chips); err != nil {
		return false
	}
	_, err := core.Lower(sys, wl)
	return err == nil
}

// sweepPoint is one generated input: the spec and its oracle point.
type sweepPoint struct {
	spec spec
	sys  core.System
	wl   core.Workload
}

// genSweep returns the seeded sweep-cold point set. Every legal
// (model, chips, topology, network, strategy) cell contributes one
// batch-1 decode step and one point of another mode (prompt, or decode
// at batch 2, 4 or 8); the seed picks those modes and the memory tiers.
// A batch-1 step costs about a quarter of any other mode, so fixing one
// of each per cell keeps every seed's pass cost, the mix of cheap 1-chip
// and expensive 64-chip points, and the set of distinct schedules a
// cold pass lowers the same: pass cost moves with the program, not with
// the draw. The filtering fills the schedule intern; callers reset it
// before timing a cold pass.
func genSweep(seed uint64) []sweepPoint {
	nets := networks{}
	type cell struct{ model, chips, topo, net, strategy int }
	var order []cell
	cells := map[cell][2][]sweepPoint{}
	for m := range sweepModels {
		for c := range sweepChips {
			for t := range hw.Topologies() {
				for nt := range sweepNets {
					for st := range sweepStrategies {
						k := cell{m, c, t, nt, st}
						var kinds [2][]sweepPoint
						for b := range sweepBatches {
							for me := range sweepMems {
								sp := spec{Model: m, Batch: b, Chips: c, Topo: t, Net: nt, Mem: me, Strategy: st}
								sys, wl, ok := sp.point(nets)
								if !ok || !legal(sys, wl) {
									continue
								}
								kind := 0
								if sweepBatches[b] != 1 {
									kind = 1
								}
								kinds[kind] = append(kinds[kind], sweepPoint{sp, sys, wl})
							}
						}
						if len(kinds[0])+len(kinds[1]) > 0 {
							order = append(order, k)
							cells[k] = kinds
						}
					}
				}
			}
		}
	}
	// The cells run in one fixed interleaved order for every seed, so
	// the same expensive lowerings run side by side on the workers and
	// reach the same peak memory together whatever the draw.
	fixed := newRNG(0)
	fixed.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	r := newRNG(seed)
	var out []sweepPoint
	for _, k := range order {
		for _, pts := range cells[k] {
			if len(pts) > 0 {
				out = append(out, pts[r.intn(len(pts))])
			}
		}
	}
	return out
}

// rng is a splitmix64 stream: the generator depends only on the seed,
// never on the Go release's math/rand algorithms.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ 0x6d637564697374} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is Fisher-Yates over n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
