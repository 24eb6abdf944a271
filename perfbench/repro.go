package main

import (
	"fmt"
	"os"
	"path/filepath"

	"mcudist/internal/evalpool"
	"mcudist/internal/experiments"
	"mcudist/internal/interconnect"
	"mcudist/internal/resultstore"
)

// reproGroups are the span groups of the suite, one per paperrepro
// step family.
var reproGroups = []string{
	"figures", "ablations", "topology", "network", "syncplan",
	"session", "extensions", "fleet", "memtier", "resilience",
}

// reproStep is one internal/experiments call of cmd/paperrepro.
type reproStep struct {
	group, name string
	run         func() (any, error)
}

func call[T any](f func() (T, error)) func() (any, error) {
	return func() (any, error) { return f() }
}

// reproSteps are the experiments cmd/paperrepro runs, in its order and
// with its defaults (network ablation: clusters of 4, 10x backhaul).
var reproSteps = []reproStep{
	{"figures", "fig4a", call(experiments.Fig4a)},
	{"figures", "fig4b", call(experiments.Fig4b)},
	{"figures", "fig4c", call(experiments.Fig4c)},
	{"figures", "fig5a", call(experiments.Fig5a)},
	{"figures", "fig5b", call(experiments.Fig5b)},
	{"figures", "fig5c", call(experiments.Fig5c)},
	{"figures", "fig6", call(experiments.Fig6)},
	{"figures", "table1", call(experiments.Table1)},
	{"figures", "headline", call(experiments.RunHeadline)},
	{"ablations", "reduce-topology", call(experiments.AblationReduceTopology)},
	{"ablations", "group-size", call(experiments.AblationGroupSize)},
	{"ablations", "reduce-precision", call(experiments.AblationReducePrecision)},
	{"ablations", "prefetch", call(experiments.AblationPrefetch)},
	{"ablations", "activation-spill", call(experiments.AblationActivationSpill)},
	{"ablations", "link-bandwidth", call(experiments.AblationLinkBandwidth)},
	{"ablations", "degraded-link", call(experiments.AblationDegradedLink)},
	{"ablations", "straggler", call(experiments.AblationStraggler)},
	{"topology", "topology", call(experiments.AblationTopologyShapes)},
	{"network", "network", func() (any, error) { return experiments.AblationNetworkBackhaul(4, 10) }},
	{"syncplan", "syncplan", call(experiments.AblationSyncPlan)},
	{"session", "session", call(experiments.SessionAutotune)},
	{"extensions", "full-grid", call(experiments.ExtensionFullGrid)},
	{"extensions", "seqlen", call(experiments.ExtensionSeqLenStudy)},
	{"extensions", "context", call(experiments.ExtensionContextStudy)},
	{"extensions", "lm-head", call(experiments.ExtensionLMHeadStudy)},
	{"extensions", "gqa", call(experiments.ExtensionGQAStudy)},
	{"extensions", "batching", call(experiments.ExtensionBatchingStudy)},
	{"extensions", "collective", call(experiments.ExtensionCollectiveStudy)},
	{"fleet", "fleet-saturation", call(experiments.FleetSaturation)},
	{"fleet", "fleet-batching", call(experiments.FleetBatchingAblation)},
	{"memtier", "memtier", call(experiments.MemTierStudy)},
	{"memtier", "tiling", call(experiments.MemTilingAutotune)},
	{"resilience", "resilience", call(experiments.ResilienceMargin)},
}

// repro runs the whole paperrepro suite per pass: cold against a fresh
// store, or warm against the store setup filled. Both start each pass
// with a new default pool (empty memo, counters at zero) and a reset
// schedule intern.
type repro struct {
	warm    bool
	dir     string
	workers int
	// ref is the reference digest of every step's result: a workers=1
	// pass (cold) or the pass that filled the store (warm).
	ref [][32]byte
}

func newRepro(warm bool, dir string, workers int) workload {
	return &repro{warm: warm, dir: dir, workers: workers}
}

func (w *repro) storeDir(id int) string {
	if w.warm {
		return filepath.Join(w.dir, "warm-store")
	}
	return filepath.Join(w.dir, fmt.Sprintf("cold-%d", id))
}

// setup computes the reference results. Cold: a serial suite pass
// with no store. Warm: a cold pass at full concurrency that fills the
// store the warm passes read.
func (w *repro) setup() error {
	workers := 1
	var store *resultstore.Store
	if w.warm {
		workers = w.workers
		dir := w.storeDir(0)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		var err error
		if store, err = resultstore.Open(dir); err != nil {
			return err
		}
		defer store.Close()
	}
	evalpool.SetWorkers(workers)
	evalpool.SetStore(store)
	defer evalpool.SetStore(nil)
	interconnect.ResetScheduleCache()
	results, errs := suite(nil, -1)
	w.ref = make([][32]byte, len(reproSteps))
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference %s: %w", reproSteps[i].name, err)
		}
		w.ref[i] = digest(results[i])
	}
	return nil
}

// suite runs every step, one span per experiments call under parent.
func suite(tr *tracer, parent int) ([]any, []error) {
	results := make([]any, len(reproSteps))
	errs := make([]error, len(reproSteps))
	for i, st := range reproSteps {
		s := tr.begin("experiments."+st.group, i, parent)
		results[i], errs[i] = st.run()
		tr.end(s)
	}
	return results, errs
}

func (w *repro) run(tr *tracer, id int) (pass, error) {
	dir := w.storeDir(id)
	if !w.warm {
		defer os.RemoveAll(dir)
	}
	evalpool.SetWorkers(w.workers)
	interconnect.ResetScheduleCache()
	low0 := interconnect.Lowerings()

	m := startMeter()
	root := tr.begin("repro.pass", id, -1)
	s := tr.begin("resultstore.open", id, root)
	store, err := resultstore.Open(dir)
	tr.end(s)
	if err != nil {
		return pass{}, err
	}
	evalpool.SetStore(store)
	results, errs := suite(tr, root)
	tr.end(root)
	p := pass{measurement: m.stop()}
	evalpool.SetStore(nil)
	defer store.Close()

	kind := "repro-cold"
	if w.warm {
		kind = "repro-warm"
	}
	var session, tiling, replan int
	for i, st := range reproSteps {
		p.ops++
		if errs[i] != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", kind, st.name, errs[i])
			continue
		}
		if digest(results[i]) != w.ref[i] {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: results differ from the reference pass\n", kind, st.name)
		}
		switch rows := results[i].(type) {
		case []experiments.SessionRow:
			for _, r := range rows {
				session += r.ExactSims
			}
		case []experiments.MemTilingRow:
			for _, r := range rows {
				tiling += r.ExactSims
			}
		case []experiments.ResilienceRow:
			for _, r := range rows {
				replan += r.ExactSims
			}
		}
	}
	st := evalpool.GetStats()
	if w.warm {
		p.ops++
		if st.Simulations != 0 {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: repro-warm: %d exact simulations against a filled store\n", st.Simulations)
		}
	}
	p.points = float64(evalpool.Evaluations())
	p.requests = float64(st.MemoryHits + st.DiskHits + st.Simulations)
	p.storeMB = float64(store.SizeBytes()) / (1 << 20)
	p.counts = map[string]float64{
		"evalpool.sims":              float64(st.Simulations),
		"evalpool.disk_hits":         float64(st.DiskHits),
		"evalpool.memory_hits":       float64(st.MemoryHits),
		"interconnect.lowerings":     float64(interconnect.Lowerings() - low0),
		"explore.session_exact_sims": float64(session),
		"explore.tiling_exact_sims":  float64(tiling),
		"explore.replan_exact_sims":  float64(replan),
		"resultstore.records":        float64(store.Len()),
		"resultstore.skipped":        float64(store.Skipped()),
	}
	if !w.warm {
		p.counts["resultstore.appends"] = float64(store.Len())
	}
	return p, nil
}
