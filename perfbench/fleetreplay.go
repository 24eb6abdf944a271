package main

import (
	"fmt"
	"os"
	"path/filepath"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/fleet"
	"mcudist/internal/interconnect"
	"mcudist/internal/model"
	"mcudist/internal/resultstore"
)

// fleetRates are the offered loads in requests per second: below, at
// and past the two-group fleet's ~200 req/s knee.
var fleetRates = []float64{50, 200, 800}

const fleetRequests = 100_000

// fleetReplay replays seeded Poisson traces on the two-group, 64-chip
// scaled fleet with a primed oracle memo, so a pass is pure scheduling:
// no simulations and no store.
type fleetReplay struct {
	seed    uint64
	dir     string
	workers int

	traces []fleet.Trace
	sys    core.System
	// ref is the digest of each trace's NoPrePrice reference metrics.
	ref     [][32]byte
	storeMB float64
}

func newFleetReplay(seed uint64, dir string, workers int) workload {
	return &fleetReplay{seed: seed, dir: dir, workers: workers}
}

func (w *fleetReplay) options(i int) fleet.Options {
	return fleet.Options{
		Trace:  w.traces[i],
		System: w.sys,
		Model:  model.TinyLlamaScaled64(),
		Groups: 2,
	}
}

// setup generates the traces, autotunes the collective plan once,
// primes the oracle memo with one replay per trace (persisting the
// priced shapes to a store, whose size is store_mb), and replays each
// trace on the lazily pricing NoPrePrice reference path.
func (w *fleetReplay) setup() error {
	w.traces = w.traces[:0]
	for i, rate := range fleetRates {
		w.traces = append(w.traces, fleet.PoissonTrace(fleet.TraceOptions{
			Requests: fleetRequests, RatePerSecond: rate,
			Seed: w.seed*uint64(len(fleetRates)) + uint64(i) + 1,
		}))
	}
	evalpool.SetWorkers(w.workers)
	interconnect.ResetScheduleCache()
	dir := filepath.Join(w.dir, "fleet-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	evalpool.SetStore(store)
	defer evalpool.SetStore(nil)

	w.sys = core.DefaultSystem(64)
	tuned, err := explore.AutotuneSession(w.sys, model.TinyLlamaScaled64(), explore.SessionOptions{})
	if err != nil {
		return fmt.Errorf("autotune: %w", err)
	}
	w.sys.Options.SyncPlan = tuned.Plan
	for i := range w.traces {
		if _, err := fleet.Run(w.options(i)); err != nil {
			return fmt.Errorf("prime %g req/s: %w", fleetRates[i], err)
		}
	}
	w.storeMB = float64(store.SizeBytes()) / (1 << 20)
	w.ref = make([][32]byte, len(w.traces))
	for i := range w.traces {
		opts := w.options(i)
		opts.NoPrePrice = true
		res, err := fleet.Run(opts)
		if err != nil {
			return fmt.Errorf("reference %g req/s: %w", fleetRates[i], err)
		}
		if res.ExactSims != 0 {
			return fmt.Errorf("reference %g req/s: %d exact simulations after priming", fleetRates[i], res.ExactSims)
		}
		w.ref[i] = digest(res.Metrics)
	}
	return nil
}

func (w *fleetReplay) run(tr *tracer, id int) (pass, error) {
	results := make([]*fleet.Result, len(w.traces))
	errs := make([]error, len(w.traces))
	m := startMeter()
	root := tr.begin("fleet.replay", id, -1)
	for i := range w.traces {
		s := tr.begin(fmt.Sprintf("fleet.r%g", fleetRates[i]), i, root)
		results[i], errs[i] = fleet.Run(w.options(i))
		tr.end(s)
	}
	tr.end(root)
	p := pass{measurement: m.stop()}

	var prefill, decode, maxQ int
	var batchSteps, exact, shapes float64
	for i, res := range results {
		p.ops++
		if errs[i] != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: fleet-replay %g req/s: %v\n", fleetRates[i], errs[i])
			continue
		}
		if res.ExactSims != 0 || digest(res.Metrics) != w.ref[i] {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: fleet-replay %g req/s: %d exact sims, metrics equal reference: %v\n",
				fleetRates[i], res.ExactSims, digest(res.Metrics) == w.ref[i])
		}
		m := res.Metrics
		prefill += m.PrefillSteps
		decode += m.DecodeSteps
		batchSteps += m.MeanBatch * float64(m.DecodeSteps)
		maxQ = max(maxQ, m.MaxQueueDepth)
		exact += float64(res.ExactSims)
		shapes += float64(res.DistinctShapes)
	}
	p.points = shapes
	p.requests = float64(len(w.traces) * fleetRequests)
	p.storeMB = w.storeMB
	meanBatch := 0.0
	if decode > 0 {
		meanBatch = batchSteps / float64(decode)
	}
	p.counts = map[string]float64{
		"fleet.prefill_steps":   float64(prefill),
		"fleet.decode_steps":    float64(decode),
		"fleet.mean_batch":      meanBatch,
		"fleet.max_queue_depth": float64(maxQ),
		"fleet.exact_sims":      exact,
	}
	return p, nil
}
