package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mcudist/internal/core"
	"mcudist/internal/deploy"
	"mcudist/internal/energy"
	"mcudist/internal/evalpool"
	"mcudist/internal/interconnect"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
	"mcudist/internal/resultstore"
)

// sweepCold evaluates the seeded point set cold: a new pool with an
// empty memo, a reset schedule intern and an empty store per pass. Its
// traced pass writes the pool's miss path out call by call.
type sweepCold struct {
	seed    uint64
	dir     string
	workers int

	pts []sweepPoint
	// ref holds the serial core.Run digest of every point; cycles and
	// joules its simulated totals, summed in point order.
	ref            [][32]byte
	cycles, joules float64
}

func newSweepCold(seed uint64, dir string, workers int) workload {
	return &sweepCold{seed: seed, dir: dir, workers: workers}
}

// setup generates the point set and evaluates the serial reference.
func (w *sweepCold) setup() error {
	w.pts = genSweep(w.seed)
	interconnect.ResetScheduleCache()
	w.ref = make([][32]byte, len(w.pts))
	w.cycles, w.joules = 0, 0
	for i, p := range w.pts {
		rep, err := core.Run(p.sys, p.wl)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.spec, err)
		}
		w.ref[i] = digest(rep)
		w.cycles += rep.Cycles
		w.joules += rep.Energy.Total()
	}
	return nil
}

func (w *sweepCold) run(tr *tracer, id int) (pass, error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("sweep-%d", id))
	defer os.RemoveAll(dir)
	store, err := resultstore.Open(dir)
	if err != nil {
		return pass{}, err
	}
	defer store.Close()
	interconnect.ResetScheduleCache()
	pool := evalpool.New(w.workers)
	pool.SetStore(store)
	low0 := interconnect.Lowerings()

	reps := make([]*core.Report, len(w.pts))
	errs := make([]error, len(w.pts))
	eval := func(i int) { reps[i], errs[i] = pool.Run(w.pts[i].sys, w.pts[i].wl) }
	if tr != nil {
		eval = func(i int) { reps[i], errs[i] = decomposed(tr, i, w.pts[i], store) }
	}
	m := startMeter()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.pts) {
					return
				}
				eval(i)
			}
		}()
	}
	wg.Wait()
	p := pass{measurement: m.stop()}

	var cycles, joules float64
	for i, rep := range reps {
		p.ops++
		if errs[i] != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: sweep-cold %s: %v\n", w.pts[i].spec, errs[i])
			continue
		}
		if digest(rep) != w.ref[i] {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: sweep-cold %s: report differs from serial core.Run\n", w.pts[i].spec)
		}
		cycles += rep.Cycles
		joules += rep.Energy.Total()
	}
	if cycles != w.cycles || joules != w.joules {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: sweep-cold: simulated totals %v cycles %v J, reference %v cycles %v J\n",
			cycles, joules, w.cycles, w.joules)
	}
	p.ops++
	p.points = float64(len(w.pts))
	p.requests = float64(len(w.pts))
	p.storeMB = float64(store.SizeBytes()) / (1 << 20)
	p.counts = map[string]float64{
		"interconnect.lowerings": float64(interconnect.Lowerings() - low0),
		"resultstore.appends":    float64(store.Len()),
		"perfsim.sim_cycles_sum": cycles,
		"energy.sim_joules_sum":  joules,
	}
	if tr == nil {
		st := pool.Stats()
		p.counts["evalpool.sims"] = float64(st.Simulations)
		p.counts["evalpool.disk_hits"] = float64(st.DiskHits)
		p.counts["evalpool.memory_hits"] = float64(st.MemoryHits)
	}
	return p, nil
}

// decomposed evaluates one point the way core.Run and the pool's miss
// path do, one traced layer call at a time: lower the deployment,
// fetch the interned schedule perfsim will use, simulate, price the
// energy, and append the report to the store.
func decomposed(tr *tracer, i int, p sweepPoint, store *resultstore.Store) (*core.Report, error) {
	root := tr.begin("sweep.point", i, -1)
	defer tr.end(root)
	sys, wl := p.sys, p.wl

	s := tr.begin("deploy", i, root)
	d, err := core.Lower(sys, wl)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("interconnect", i, root)
	if sys.Strategy == partition.Pipeline {
		_, err = interconnect.CachedPipelineChain(sys.HW.Network, sys.Chips)
	} else {
		_, err = interconnect.CachedSchedule(sys.HW, sys.Chips)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("perfsim", i, root)
	res, err := perfsim.Run(d)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("energy", i, root)
	e := energy.FromResult(sys.HW, res)
	byClass := energy.C2CByClass(sys.HW, res)
	tr.end(s)

	rep := report(sys, wl, d, res, e, byClass)
	s = tr.begin("resultstore.append", i, root)
	err = store.Append(sys, wl, rep)
	tr.end(s)
	return rep, err
}

// report assembles a core.Report from its layers' outputs, field for
// field as core.Run does.
func report(sys core.System, wl core.Workload, d *deploy.Deployment, res *perfsim.Result,
	e energy.Report, byClass []energy.ClassEnergy) *core.Report {
	rep := &core.Report{
		System:           sys,
		Workload:         wl,
		Cycles:           res.TotalCycles,
		Seconds:          sys.HW.CyclesToSeconds(res.TotalCycles),
		Breakdown:        res.Breakdown,
		Energy:           e,
		EDP:              e.Total() * sys.HW.CyclesToSeconds(res.TotalCycles),
		Tier:             d.WorstTier(),
		Syncs:            res.Syncs,
		C2CBytes:         res.TotalC2CBytes,
		PerChip:          res.PerChip,
		ByClass:          res.ByClass,
		C2CEnergyByClass: byClass,
	}
	for i := range res.PerChip {
		rep.L3Bytes += res.PerChip[i].L3Bytes
	}
	return rep
}
