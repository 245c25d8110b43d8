// Command figures regenerates the paper's evaluation tables and figures
// (Table 1, Figs. 9–13) from the simulator and prints them as aligned text
// tables. EXPERIMENTS.md records a reference run next to the paper's
// numbers.
//
// Usage:
//
//	figures            # everything
//	figures -fig 9     # one figure: table1, 9, 10, 11, 12, 13, margins, ablation, extended,
//	                   # faults, replication, ecc, headroom, batch, apply, techcompare, dram
//	figures -fig 12 -csv                           # CSV instead of a text table (one figure only)
//	figures -fig batch -benchout BENCH_batch.json  # also write the bench's baseline JSON
//	figures -fig batch -benchgate BENCH_batch.json # fail on a >15% regression of a gated metric
//
// The benches are apply (PCM Apply hot path), dram (DRAM TRA backend hot
// path) and batch (the k=16 sweep point); -benchout and -benchgate act on
// the one -fig names, from the same run it prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pinatubo/internal/analog"
	"pinatubo/internal/figures"
	"pinatubo/internal/nvm"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: table1, 9, 10, 11, 12, 13, margins, ablation, extended, faults, replication, ecc, headroom, batch, apply, techcompare, dram, all")
	csvOut := flag.Bool("csv", false, "emit CSV instead of text tables where a figure has one; needs a single -fig")
	benchOut := flag.String("benchout", "", "write the bench -fig names (apply, dram or batch) as baseline JSON to this file")
	benchGate := flag.String("benchgate", "", "fail if a gated metric of the bench -fig names regresses >15% vs this baseline JSON")
	flag.Parse()

	if err := run(os.Stdout, *fig, *csvOut, *benchOut, *benchGate); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, fig string, csvOut bool, benchOut, benchGate string) error {
	if csvOut && fig == "all" {
		return fmt.Errorf("-csv needs a single -fig")
	}
	if (benchOut != "" || benchGate != "") && fig != "apply" && fig != "dram" && fig != "batch" {
		return fmt.Errorf("-benchout and -benchgate need -fig apply, dram or batch, not %q", fig)
	}
	want := func(name string) bool { return fig == "all" || fig == name }
	printed := false
	var bench figures.BenchResult // the run -benchout and -benchgate act on

	if want("table1") {
		fmt.Fprintln(w, figures.FormatTable1())
		printed = true
	}
	if want("9") {
		rows, err := figures.Fig9()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteFig9CSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatFig9(rows))
		fmt.Fprintln(w, "  turning point A at 2^14 (SA sharing), B at 2^19 (rank row);")
		fmt.Fprintln(w, "  regions: <12.8 GBps below the DDR bus, >1842 GBps beyond internal bandwidth")
		fmt.Fprintln(w)
		printed = true
	}
	if want("10") {
		rows, err := figures.Fig10()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteComparisonCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatComparison("Fig. 10 — bitwise-operation speedup vs SIMD baseline", rows))
		printed = true
	}
	if want("11") {
		rows, err := figures.Fig11()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteComparisonCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatComparison("Fig. 11 — bitwise-operation energy saving vs SIMD baseline", rows))
		printed = true
	}
	if want("12") {
		rows, err := figures.Fig12()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteFig12CSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatFig12(rows))
		printed = true
	}
	if want("13") {
		res, err := figures.Fig13()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteFig13CSV(w, res)
		}
		fmt.Fprintln(w, figures.FormatFig13(res))
		printed = true
	}
	if want("margins") {
		printMargins(w)
		printed = true
	}
	if want("ablation") {
		d, err := figures.DepthAblation()
		if err != nil {
			return err
		}
		m, err := figures.MuxAblation()
		if err != nil {
			return err
		}
		te, err := figures.TechAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.FormatAblations(d, m, te))
		conc, err := figures.ConcurrencyAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.FormatConcurrency(conc))
		printed = true
	}
	if want("extended") {
		rows, err := figures.Extended()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.FormatExtended(rows))
		printed = true
	}
	if want("faults") {
		rows, err := figures.FaultSweep(figures.DefaultFaultRates)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteFaultSweepCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatFaultSweep(rows))
		printed = true
	}
	if want("replication") {
		rows, err := figures.ReplicationSweep(figures.DefaultFaultRates)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteReplicationCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatReplicationSweep(rows))
		printed = true
	}
	if want("ecc") {
		rows, err := figures.ECCSweep(figures.DefaultFaultRates)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteECCSweepCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatECCSweep(rows))
		printed = true
	}
	if want("headroom") {
		rows, err := figures.HeadroomSweep(figures.DefaultFaultRates, figures.DefaultHeadroomConcurrency)
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteHeadroomCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatHeadroom(rows))
		printed = true
	}
	if want("batch") {
		rows, err := figures.BatchSweep(figures.DefaultBatchKs)
		if err != nil {
			return err
		}
		if csvOut {
			if err := figures.WriteBatchCSV(w, rows); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(w, figures.FormatBatch(rows))
		}
		res, err := figures.BatchBench(rows)
		if err != nil {
			return err
		}
		if !csvOut {
			fmt.Fprintln(w, figures.FormatBench(res))
		}
		bench = res
		printed = true
	}
	if want("apply") {
		res, err := figures.ApplyBench()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.FormatBench(res))
		bench = res
		printed = true
	}
	if want("techcompare") {
		rows, err := figures.TechCompare()
		if err != nil {
			return err
		}
		if csvOut {
			return figures.WriteTechCompareCSV(w, rows)
		}
		fmt.Fprintln(w, figures.FormatTechCompare(rows))
		printed = true
	}
	if want("dram") {
		res, err := figures.DRAMBench()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figures.FormatBench(res))
		bench = res
		printed = true
	}
	if !printed {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return benchFiles(bench, benchOut, benchGate)
}

// benchFiles writes the bench run the figures above printed to benchOut
// and gates it against the baseline at benchGate; an empty path skips
// that step.
func benchFiles(res figures.BenchResult, benchOut, benchGate string) error {
	if benchOut != "" {
		f, err := os.Create(benchOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := figures.WriteBenchJSON(f, res); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if benchGate != "" {
		data, err := os.ReadFile(benchGate)
		if err != nil {
			return err
		}
		var baseline map[string]float64
		if err := json.Unmarshal(data, &baseline); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", benchGate, err)
		}
		if err := figures.GateBench(res, baseline); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchgate: %s gated metrics within %.0f%% of baseline %s\n",
			res.Name, figures.GateTolerance*100, benchGate)
	}
	return nil
}

// printMargins reports the sensing-margin analysis behind the paper's
// multi-row claims (the Fig. 5/6 design-space content).
func printMargins(w io.Writer) {
	cfg := analog.DefaultSenseConfig()
	fmt.Fprintln(w, "Sensing margins (worst case, 4σ variation, 5% SA offset tolerance)")
	for _, p := range nvm.All() {
		orMax, err := analog.MaxORRows(cfg, p, 512)
		if err != nil {
			fmt.Fprintf(w, "  %-9s %v\n", p.Tech, err)
			continue
		}
		andMax, err := analog.MaxANDRows(cfg, p, 16)
		if err != nil {
			fmt.Fprintf(w, "  %-9s %v\n", p.Tech, err)
			continue
		}
		fmt.Fprintf(w, "  %-9s ON/OFF %6.1f  analog OR depth %3d  AND depth %d  architectural cap %d\n",
			p.Tech, p.Cell.OnOffRatio(), orMax, andMax, p.MaxOpenRows)
		for _, n := range []int{2, 8, 32, 128} {
			m := analog.ORMargin(cfg, p.Cell, n)
			fmt.Fprintf(w, "      %3d-row OR margin %+.3f\n", n, m)
		}
	}
	fmt.Fprintln(w)
	printReliability(w, cfg)
}

// printReliability reports the PCM drift/temperature sensitivity of the
// multi-row margins (an extension beyond the paper's fixed-condition
// analysis).
func printReliability(w io.Writer, cfg analog.SenseConfig) {
	p := nvm.Get(nvm.PCM)
	fmt.Fprintln(w, "PCM reliability sweeps (128-row OR margin / depth)")
	drift, err := analog.DriftSweep(cfg, p, []float64{1, 1e3, 1e6, 1e8})
	if err != nil {
		fmt.Fprintln(w, "  drift sweep:", err)
		return
	}
	for _, pt := range drift {
		fmt.Fprintf(w, "  drift %8.0es:  ON/OFF %7.0f  margin %+.3f  depth %3d\n",
			pt.Condition, pt.Ratio, pt.Margin128, pt.Depth)
	}
	temps, err := analog.TemperatureSweep(cfg, p, []float64{0, 25, 50, 85})
	if err != nil {
		fmt.Fprintln(w, "  temperature sweep:", err)
		return
	}
	for _, pt := range temps {
		fmt.Fprintf(w, "  +%3.0f°C:          ON/OFF %7.1f  margin %+.3f  depth %3d\n",
			pt.Condition, pt.Ratio, pt.Margin128, pt.Depth)
	}
	fmt.Fprintln(w)
}
