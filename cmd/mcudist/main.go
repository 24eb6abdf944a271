// Command mcudist simulates one transformer workload on a multi-MCU
// system and prints the runtime breakdown, energy, and placement
// report.
//
// Usage:
//
//	mcudist -model tinyllama -mode autoregressive -chips 8
//	mcudist -model mobilebert -chips 4 -strategy tensor
//	mcudist -model scaled -mode prompt -chips 64 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mcudist/internal/core"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
	"mcudist/internal/report"
	"mcudist/internal/trace"
)

func main() {
	var (
		modelName = flag.String("model", "tinyllama", "model: tinyllama | scaled | mobilebert | smollm | edgellama")
		modeName  = flag.String("mode", "autoregressive", "mode: autoregressive | prompt")
		chips     = flag.Int("chips", 8, "number of MCUs")
		seqLen    = flag.Int("seqlen", 0, "sequence length (0 = paper default)")
		stratName = flag.String("strategy", "tensor", "strategy: tensor | replicated | pipeline")
		csv       = flag.Bool("csv", false, "emit CSV instead of a report")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON to this file")
		gantt     = flag.Bool("gantt", false, "print a per-chip timeline chart")
	)
	flag.Parse()

	cfg, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	mode, err := model.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	strat, err := pickStrategy(*stratName)
	if err != nil {
		fatal(err)
	}

	sys := core.DefaultSystem(*chips)
	sys.Strategy = strat
	wl := core.Workload{Model: cfg, Mode: mode, SeqLen: *seqLen}
	rep, err := core.Run(sys, wl)
	if err != nil {
		fatal(err)
	}

	var tl *trace.Timeline
	if *traceOut != "" || *gantt {
		tl = &trace.Timeline{}
		if err := runForTrace(sys, wl, tl); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tl.ChromeJSON(f, sys.HW.Chip.FreqHz); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace spans to %s\n", tl.Len(), *traceOut)
	}

	if *csv {
		t := report.NewTable("", "model", "mode", "chips", "strategy", "seqlen",
			"cycles", "ms", "energy_mj", "edp_js", "tier", "l3_bytes", "c2c_bytes")
		t.AddRow(cfg.Name, mode.String(), *chips, strat.String(), wl.ResolvedSeqLen(),
			rep.Cycles, rep.Seconds*1e3, rep.Energy.Total()*1e3, rep.EDP,
			rep.Tier.String(), rep.L3Bytes, rep.C2CBytes)
		if err := t.CSV(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("%s, %s mode, S=%d on %d chip(s) [%s]\n",
		cfg.Name, mode, wl.ResolvedSeqLen(), *chips, strat)
	fmt.Printf("  runtime     %.0f cycles  (%.3f ms at 500 MHz)\n", rep.Cycles, rep.Seconds*1e3)
	fmt.Printf("  energy      %.4f mJ  (EDP %.4g J·s)\n", rep.Energy.Total()*1e3, rep.EDP)
	fmt.Printf("  placement   %s, %d syncs, %.1f KiB off-chip, %.1f KiB chip-to-chip\n",
		rep.Tier, rep.Syncs, float64(rep.L3Bytes)/1024, float64(rep.C2CBytes)/1024)
	fmt.Println("  runtime breakdown:")
	b := rep.Breakdown
	total := b.Total()
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"computation", b.Compute},
		{"DMA L2<->L1", b.L2L1},
		{"DMA L3<->L2", b.L3},
		{"chip-to-chip", b.C2C},
	} {
		fmt.Printf("    %-12s %12.0f cycles %5.1f%%  %s\n",
			row.name, row.v, 100*row.v/total, report.Bar(row.v, total, 40))
	}
	fmt.Println("  energy breakdown:")
	fmt.Printf("    %s\n", rep.Energy)
	if *gantt {
		fmt.Println()
		if err := tl.Render(os.Stdout, 100); err != nil {
			fatal(err)
		}
	}
}

// runForTrace re-runs the simulation with a timeline attached (the
// report path stays allocation-light when tracing is off).
func runForTrace(sys core.System, wl core.Workload, tl *trace.Timeline) error {
	d, err := core.Lower(sys, wl)
	if err != nil {
		return err
	}
	_, err = perfsim.RunTraced(d, tl)
	return err
}

func pickStrategy(name string) (partition.Strategy, error) {
	switch strings.ToLower(name) {
	case "tensor", "tensor-parallel", "ours":
		return partition.TensorParallel, nil
	case "replicated":
		return partition.Replicated, nil
	case "pipeline":
		return partition.Pipeline, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (tensor | replicated | pipeline)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcudist:", err)
	os.Exit(1)
}
