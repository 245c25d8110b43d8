package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"pinatubo/internal/figures"
	"pinatubo/perfbench/stats"
)

// expectedGmeans are the Fig. 10 and Fig. 12 geometric means the figure
// pipeline produced when this benchmark was written. The figures are
// deterministic, so any difference is a modelling change (or a bug), not
// noise; the oracle allows only float rounding.
var expectedGmeans = map[string]float64{
	"fig10/S-DRAM":               9.7696730597082,
	"fig10/AC-PIM":               5.055116114278498,
	"fig10/Pinatubo-2":           6.404862501185195,
	"fig10/Pinatubo-128":         56.88096395387821,
	"fig12.speedup/S-DRAM":       1.1690871675654306,
	"fig12.speedup/AC-PIM":       1.1549732580608123,
	"fig12.speedup/Pinatubo-2":   1.1252130507093159,
	"fig12.speedup/Pinatubo-128": 1.2056337116637579,
	"fig12.speedup/Ideal":        1.2097682217370804,
	"fig12.energy/S-DRAM":        1.2098179277478895,
	"fig12.energy/AC-PIM":        1.207043090201948,
	"fig12.energy/Pinatubo-2":    1.2086274990339914,
	"fig12.energy/Pinatubo-128":  1.2171447838159104,
	"fig12.energy/Ideal":         1.2177884098591654,
}

// gmeanTolerance is the relative float-rounding slack of the figure
// oracle.
const gmeanTolerance = 1e-9

// regenerate runs the two figure entry points once and returns their
// gmeans keyed like expectedGmeans.
func regenerate(tr *tracer, req int64) (map[string]float64, error) {
	rec := tr.active()
	got := map[string]float64{}
	id := rec.Begin("figures", "figures.fig10", 0, req)
	rows10, err := figures.Fig10()
	rec.End(id)
	if err != nil {
		return nil, err
	}
	for k, v := range figures.Gmeans(rows10) {
		got["fig10/"+k] = v
	}
	// Collect Fig. 10's garbage before Fig. 12 starts, as between two
	// passes: otherwise where the collector's cycles fall across the
	// boundary decides the peak RSS, which then varied by 40% run to run.
	runtime.GC()
	id = rec.Begin("figures", "figures.fig12", 0, req)
	rows12, err := figures.Fig12()
	rec.End(id)
	if err != nil {
		return nil, err
	}
	for k, v := range figures.Fig12Gmeans(rows12, "", false) {
		got["fig12.speedup/"+k] = v
	}
	for k, v := range figures.Fig12Gmeans(rows12, "", true) {
		got["fig12.energy/"+k] = v
	}
	return got, nil
}

// wrongGmeans returns the keys whose gmean is missing or off the recorded
// value.
func wrongGmeans(got map[string]float64) []string {
	var bad []string
	for k, want := range expectedGmeans {
		g, ok := got[k]
		if !ok || math.Abs(g-want) > gmeanTolerance*math.Abs(want) {
			bad = append(bad, fmt.Sprintf("%s=%v (want %v)", k, g, want))
		}
	}
	sort.Strings(bad)
	return bad
}

// runPaperFigures is the paper-figures workload: Fig. 10 and Fig. 12
// regenerated in one process through the figures entry points. Its unit
// of work is one regeneration of both figures; set-up is building the
// evaluation traces they run on.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func runPaperFigures(e env, tr *tracer) (outcome, error) {
	// Building the traces takes seconds, so fewer repetitions suffice.
	setups, err := setupTimes(min(e.setupReps, 3), func() error {
		_, err := figures.AllTraces()
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	ac := newAllocCounter()
	var (
		out              = outcome{layer: map[string]float64{}}
		lats             []float64
		split            rateSplit
		allocs, allocOps float64
	)
	deadline := time.Now().Add(e.seconds)
	tr.restart()
	for n := int64(0); n < 2 || time.Now().Before(deadline); n++ {
		traced := tr.traced()
		runtime.GC()
		a0 := ac.read()
		c0 := processCPU()
		got, err := regenerate(tr, n)
		c1 := processCPU()
		a1 := ac.read()
		out.attempted += 2
		if err != nil {
			out.failed += 2
			fmt.Printf("paper-figures: pass %d: %v\n", n, err)
			continue
		}
		split.add(traced, 1, c1-c0)
		if !traced {
			lats = append(lats, ms(c1-c0))
			allocs += float64(a1 - a0)
			allocOps += 2
		}
		if bad := wrongGmeans(got); len(bad) > 0 {
			out.failed += 2
			fmt.Printf("paper-figures: pass %d: gmeans off the recorded values: %v\n", n, bad)
		}
	}
	mem, err := vmHWM("self")
	if err != nil {
		return out, err
	}
	fmt.Printf("paper-figures: %d passes, %d latency samples\n", out.attempted/2, len(lats))
	out.e2e = map[string]float64{
		"setup_s":     stats.Median(setups),
		"ops_per_s":   stats.Ratio(split.ops[0], split.host[0].Seconds()),
		"lat_p50_ms":  stats.Percentile(lats, 50),
		"lat_p99_ms":  stats.Percentile(lats, 99),
		"mem_peak_mb": mem,
	}
	out.layer["figures_s"] = stats.Median(lats) / 1e3
	out.layer["allocs_per_op"] = stats.Ratio(allocs, allocOps)
	out.layer["failed_frac"] = stats.Ratio(float64(out.failed), float64(out.attempted))
	out.layer["trace.overhead_frac"] = split.overhead()
	return out, nil
}
