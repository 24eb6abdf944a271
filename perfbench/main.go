// Command perfbench is the cost-oracle benchmark. It runs one workload
// against the program as it stands, checks every output against a
// reference path, and prints one JSON result as the last line of
// standard output:
//
//	perfbench --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off; with --trace 1 it carries the per-layer metrics of
// a traced run, whose spans are also written to .bench_build. See
// README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

const (
	// setupReps is how often a run sets its workload up; setup_s is the
	// median.
	setupReps = 5
	// minPasses is the fewest passes of each kind a run measures, even
	// when one pass outlasts --seconds.
	minPasses = 3
)

// endToEnd lists the end-to-end metrics and their units, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"points_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"store_mb", "MiB"},
}

// perLayer lists the per-layer metrics of a traced run, in
// BENCHMARK.json order. Every run reports all of them; a layer that a
// workload does not call from the benchmark reads 0 there.
var perLayer = []metricDef{
	{"deploy.busy_s", "s"},
	{"deploy.self_s", "s"},
	{"interconnect.busy_s", "s"},
	{"interconnect.self_s", "s"},
	{"interconnect.lowerings", "count"},
	{"perfsim.busy_s", "s"},
	{"perfsim.self_s", "s"},
	{"energy.busy_s", "s"},
	{"energy.self_s", "s"},
	{"resultstore.append_s", "s"},
	{"resultstore.append.self_s", "s"},
	{"resultstore.appends", "count"},
	{"resultstore.open_s", "s"},
	{"resultstore.open.self_s", "s"},
	{"resultstore.records", "count"},
	{"resultstore.skipped", "count"},
	{"sweep.point.self_s", "s"},
	{"experiments.figures_s", "s"},
	{"experiments.ablations_s", "s"},
	{"experiments.topology_s", "s"},
	{"experiments.network_s", "s"},
	{"experiments.syncplan_s", "s"},
	{"experiments.session_s", "s"},
	{"experiments.extensions_s", "s"},
	{"experiments.fleet_s", "s"},
	{"experiments.memtier_s", "s"},
	{"experiments.resilience_s", "s"},
	{"experiments.figures.self_s", "s"},
	{"experiments.ablations.self_s", "s"},
	{"experiments.topology.self_s", "s"},
	{"experiments.network.self_s", "s"},
	{"experiments.syncplan.self_s", "s"},
	{"experiments.session.self_s", "s"},
	{"experiments.extensions.self_s", "s"},
	{"experiments.fleet.self_s", "s"},
	{"experiments.memtier.self_s", "s"},
	{"experiments.resilience.self_s", "s"},
	{"repro.pass.self_s", "s"},
	{"evalpool.sims", "count"},
	{"evalpool.disk_hits", "count"},
	{"evalpool.memory_hits", "count"},
	{"explore.session_exact_sims", "count"},
	{"explore.tiling_exact_sims", "count"},
	{"explore.replan_exact_sims", "count"},
	{"fleet.r50_s", "s"},
	{"fleet.r200_s", "s"},
	{"fleet.r800_s", "s"},
	{"fleet.r50.self_s", "s"},
	{"fleet.r200.self_s", "s"},
	{"fleet.r800.self_s", "s"},
	{"fleet.replay.self_s", "s"},
	{"fleet.prefill_steps", "count"},
	{"fleet.decode_steps", "count"},
	{"fleet.mean_batch", "count"},
	{"fleet.max_queue_depth", "count"},
	{"fleet.exact_sims", "count"},
	{"perfsim.sim_cycles_sum", "cycles"},
	{"energy.sim_joules_sum", "J"},
	{"runtime.alloc_mb", "MiB"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

// spanMetrics maps a span name to the per-layer metrics that report
// its busy and self time.
var spanMetrics = map[string][2]string{
	"deploy":             {"deploy.busy_s", "deploy.self_s"},
	"interconnect":       {"interconnect.busy_s", "interconnect.self_s"},
	"perfsim":            {"perfsim.busy_s", "perfsim.self_s"},
	"energy":             {"energy.busy_s", "energy.self_s"},
	"resultstore.append": {"resultstore.append_s", "resultstore.append.self_s"},
	"resultstore.open":   {"resultstore.open_s", "resultstore.open.self_s"},
	"sweep.point":        {"", "sweep.point.self_s"},
	"repro.pass":         {"", "repro.pass.self_s"},
	"fleet.replay":       {"", "fleet.replay.self_s"},
	"fleet.r50":          {"fleet.r50_s", "fleet.r50.self_s"},
	"fleet.r200":         {"fleet.r200_s", "fleet.r200.self_s"},
	"fleet.r800":         {"fleet.r800_s", "fleet.r800.self_s"},
}

func init() {
	for _, g := range reproGroups {
		spanMetrics["experiments."+g] = [2]string{"experiments." + g + "_s", "experiments." + g + ".self_s"}
	}
}

// workload is one benchmark workload. setup is timed and repeated: each
// call must start from scratch and leave the workload ready to measure.
// run measures one pass, traced when tr is non-nil, and checks its
// outputs against the reference setup computed.
type workload interface {
	setup() error
	run(tr *tracer, id int) (pass, error)
}

// pass is what one measured pass reports.
type pass struct {
	measurement
	// ops counts the operations attempted (points, suite steps,
	// replays); failed those that erred or whose outputs differ from
	// the reference.
	ops, failed int
	// points counts the distinct oracle points the pass evaluated;
	// requests the calls its callers waited on.
	points, requests float64
	storeMB          float64
	// counts must repeat exactly across passes of one kind.
	counts map[string]float64
}

// workloads maps each workload name to its constructor and to the
// number of goroutines its passes keep busy, which is how many copies
// of the calibration kernel run at once: the evaluation workers, or
// one for the fleet's serial event loop.
var workloads = map[string]struct {
	make     func(seed uint64, dir string, workers int) workload
	parallel bool
}{
	"sweep-cold":   {newSweepCold, true},
	"repro-cold":   {func(_ uint64, dir string, w int) workload { return newRepro(false, dir, w) }, true},
	"repro-warm":   {func(_ uint64, dir string, w int) workload { return newRepro(true, dir, w) }, true},
	"fleet-replay": {newFleetReplay, false},
}

func main() {
	name := flag.String("workload", "", "workload: "+fmt.Sprint(slices.Sorted(maps.Keys(workloads))))
	seed := flag.Uint64("seed", 1, "input seed (sweep-cold and fleet-replay)")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the work stores and the span file")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *traceFlag == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, out string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir, err := filepath.Abs(filepath.Join(out, "perfbench", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	workers := runtime.NumCPU()
	w := wl.make(seed, dir, workers)
	calWorkers := 1
	if wl.parallel {
		calWorkers = workers
	}

	// The calibration kernel runs before every setup and every pass;
	// its median time scales all reported times to the reference host.
	var kernelS, setupS []float64
	for i := 0; i < setupReps; i++ {
		kernelS = append(kernelS, calibrate(calWorkers))
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// Traced runs alternate untraced and traced passes, so the tracing
	// overhead compares passes taken under the same conditions.
	var plain, tracedPasses []pass
	var spans []span
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		done := !time.Now().Before(deadline)
		if done && len(plain) >= minPasses && (!traced || len(tracedPasses) >= minPasses) {
			break
		}
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		kernelS = append(kernelS, calibrate(calWorkers))
		p, err := w.run(tr, i)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", name, i, err)
		}
		if tr == nil {
			plain = append(plain, p)
			continue
		}
		busy, self := busyAndSelf(tr.spans)
		p.counts = withSpanTimes(p.counts, busy, self)
		tracedPasses = append(tracedPasses, p)
		spans = append(spans, tr.spans...)
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, ps := range [][]pass{plain, tracedPasses} {
		for _, p := range ps {
			res.Attempted += p.ops
			res.Failed += p.failed
		}
		res.Failed += repeatFailures(name, ps)
	}
	res.Correct = res.Failed == 0

	// scale converts this host's seconds to reference-host seconds.
	scale := refKernelS / median(kernelS)
	passS := field(plain, wallOf)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d setups, %d untraced and %d traced passes; "+
		"kernel median %.5fs, time scale %.4f; unscaled median setup %.4fs, pass %.4fs (quartile spread %.3f)\n",
		name, seed, len(setupS), len(plain), len(tracedPasses), median(kernelS), scale,
		median(setupS), median(passS), spread(passS))
	if !traced {
		med := func(f func(p pass) float64) float64 { return median(field(plain, f)) }
		vals := map[string]float64{
			"setup_s":        median(setupS) * scale,
			"wall_s":         median(passS) * scale,
			"points_per_s":   med(func(p pass) float64 { return p.points / p.wall }) / scale,
			"requests_per_s": med(func(p pass) float64 { return p.requests / p.wall }) / scale,
			"peak_rss_mb":    med(func(p pass) float64 { return p.peakMB }),
			"store_mb":       med(func(p pass) float64 { return p.storeMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		vals := layerMetrics(plain, tracedPasses)
		for _, m := range perLayer {
			v := vals[m.name]
			if m.unit == "s" {
				v *= scale
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		path := filepath.Join(out, "perfbench", fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := writeSpans(path, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repeatFailures checks that every pass of one kind reproduced the
// first pass's exact counts, and counts each deviating pass's
// operations as failed.
func repeatFailures(name string, ps []pass) int {
	failed := 0
	for i := 1; i < len(ps); i++ {
		for k, v := range ps[0].counts {
			if isCount(k) && ps[i].counts[k] != v {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s is %v in pass %d but %v in the first pass\n",
					name, k, ps[i].counts[k], i, v)
				failed += ps[i].ops
				break
			}
		}
	}
	return failed
}

// isCount reports whether a per-pass number is an exact-repeat count
// rather than a time.
func isCount(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit == "count" || m.unit == "cycles" || m.unit == "J"
		}
	}
	return false
}

// withSpanTimes adds a traced pass's busy and self times, in seconds,
// to its counts under their per-layer metric names.
func withSpanTimes(counts map[string]float64, busy, self map[string]time.Duration) map[string]float64 {
	out := maps.Clone(counts)
	if out == nil {
		out = map[string]float64{}
	}
	for name, d := range busy {
		if m, ok := spanMetrics[name]; ok && m[0] != "" {
			out[m[0]] = d.Seconds()
		}
	}
	for name, d := range self {
		if m, ok := spanMetrics[name]; ok {
			out[m[1]] = d.Seconds()
		}
	}
	return out
}

// layerMetrics reduces a traced run to its per-layer metrics: span
// times and counts are medians over the traced passes (counts repeat
// exactly, so their median is their value), counts only the untraced
// path measures (the pool's tiers on sweep-cold) come from the untraced
// passes, allocation is the median untraced pass's, and the tracing
// overhead compares the median traced and untraced pass times.
func layerMetrics(plain, traced []pass) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range perLayer {
		xs := counted(traced, m.name)
		if len(xs) == 0 && isCount(m.name) {
			xs = counted(plain, m.name)
		}
		if len(xs) > 0 {
			vals[m.name] = median(xs)
		}
	}
	vals["runtime.alloc_mb"] = median(field(plain, func(p pass) float64 { return p.allocMB }))
	base := median(field(plain, wallOf))
	vals["trace.overhead_pct"] = 100 * (median(field(traced, wallOf)) - base) / base
	return vals
}

// counted collects the passes' values of one count.
func counted(ps []pass, name string) []float64 {
	var xs []float64
	for _, p := range ps {
		if v, ok := p.counts[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// field collects one number from each pass.
func field(ps []pass, f func(pass) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

func wallOf(p pass) float64 { return p.wall }
