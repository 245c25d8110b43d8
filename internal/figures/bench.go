package figures

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"pinatubo"
)

// This file holds the three smoke benchmarks CI gates against committed
// BENCH_<name>.json baselines, all behind one result type:
//
//   - apply: the repeated-op workload (the shape the program cache and
//     the zero-alloc pass exist for) driven through System.Apply on PCM.
//   - dram: the same workload on the DRAM triple-row-activation backend.
//     DRAM injects no faults, so its simulated time and energy are fully
//     deterministic and gated too: a change to the lowering's command
//     count or pricing shows up as a gate failure, not a silent drift.
//   - batch: the K=16 point of the batch sweep, sequential vs batched, in
//     simulated time.
//
// Only host-independent figures are gated; wall-clock throughput is
// recorded but informational, because it is machine noise in CI.

// GateTolerance is how far a gated metric may move against its direction
// before the gate fails: 0.15 = ±15% of the baseline.
const GateTolerance = 0.15

// benchRounds is the measured round count of the repeated-op workload;
// each round issues three ops (AND, XOR, 3-source OR) over the same
// operands.
const benchRounds = 128

// Direction says which way a metric improves.
type Direction int

const (
	LowerIsBetter Direction = iota
	HigherIsBetter
)

// Metric is one named figure of a bench run.
type Metric struct {
	// Key names the metric in the BENCH_<name>.json baseline.
	Key   string
	Value float64
	// Better is the direction the gate protects.
	Better Direction
	// Gated metrics fail the gate on a regression beyond GateTolerance;
	// the rest are informational.
	Gated bool
}

// BenchResult is one run of a bench: its name (apply, dram or batch), a
// one-line description and its metrics in baseline key order.
type BenchResult struct {
	Name    string
	Title   string
	Metrics []Metric
}

// repeatedOps is one measured run of the repeated-op workload, the
// figures ApplyBench and DRAMBench both report.
type repeatedOps struct {
	ops           int
	wallOpsPerSec float64
	allocsPerOp   float64
	cacheHitRate  float64
	// simSeconds and joules sum the measured ops' simulated cost.
	simSeconds, joules float64
	rowBits            int
}

// runRepeatedOps builds a System from cfg, runs the repeated-op workload
// once warm and then benchRounds times measured.
func runRepeatedOps(cfg pinatubo.Config) (repeatedOps, error) {
	var m repeatedOps
	sys, err := pinatubo.New(cfg)
	if err != nil {
		return m, err
	}
	m.rowBits = sys.RowBits()
	vs, err := sys.AllocGroup(6, m.rowBits)
	if err != nil {
		return m, err
	}
	rng := rand.New(rand.NewSource(42))
	data := make([]uint64, m.rowBits/64)
	for _, v := range vs[:4] {
		for i := range data {
			data[i] = rng.Uint64()
		}
		if _, err := sys.Write(v, data); err != nil {
			return m, err
		}
	}
	tally := func(res pinatubo.Result, err error) error {
		if err != nil {
			return err
		}
		m.simSeconds += res.Latency.Seconds()
		m.joules += res.EnergyJoules
		return nil
	}
	round := func() error {
		if err := tally(sys.And(vs[4], vs[0], vs[1])); err != nil {
			return err
		}
		if err := tally(sys.Xor(vs[5], vs[2], vs[3])); err != nil {
			return err
		}
		return tally(sys.Or(vs[4], vs[0], vs[1], vs[2]))
	}
	// Warm up: populate the program cache and grow every scratch buffer
	// to steady-state size, then snapshot the counters so every figure
	// covers only the measured window.
	if err := round(); err != nil {
		return m, err
	}
	warm := sys.PerfStats()
	m.simSeconds, m.joules = 0, 0

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	//pinlint:ignore detrand wall-clock throughput is the benchmark's informational measurement, not a simulated result
	start := time.Now()
	for i := 0; i < benchRounds; i++ {
		if err := round(); err != nil {
			return m, err
		}
	}
	//pinlint:ignore detrand wall-clock throughput is the benchmark's informational measurement, not a simulated result
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	m.ops = benchRounds * 3
	if s := wall.Seconds(); s > 0 {
		m.wallOpsPerSec = float64(m.ops) / s
	}
	m.allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(m.ops)
	perf := sys.PerfStats()
	hits := perf.ProgramCacheHits - warm.ProgramCacheHits
	misses := perf.ProgramCacheMisses - warm.ProgramCacheMisses
	if lookups := hits + misses; lookups > 0 {
		m.cacheHitRate = float64(hits) / float64(lookups)
	}
	return m, nil
}

// repeatedOpsMetrics are the figures the apply and dram benches share:
// allocations per op catch a new hot-path allocation on any machine, and
// the cache hit rate collapses to ~0 on a program-cache key or
// invalidation bug.
func repeatedOpsMetrics(m repeatedOps) []Metric {
	return []Metric{
		{Key: "ops", Value: float64(m.ops)},
		{Key: "wall_ops_per_sec", Value: m.wallOpsPerSec, Better: HigherIsBetter},
		{Key: "allocs_per_op", Value: m.allocsPerOp, Gated: true},
		{Key: "cache_hit_rate", Value: m.cacheHitRate, Better: HigherIsBetter, Gated: true},
	}
}

// ApplyBench runs the repeated-op workload on the default (PCM) system.
func ApplyBench() (BenchResult, error) {
	m, err := runRepeatedOps(pinatubo.DefaultConfig())
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:    "apply",
		Title:   fmt.Sprintf("Apply hot path — %d repeated ops on one PCM system", m.ops),
		Metrics: repeatedOpsMetrics(m),
	}, nil
}

// DRAMBench runs the repeated-op workload on a DRAM system and adds its
// deterministic simulated time per op and energy per result bit.
func DRAMBench() (BenchResult, error) {
	m, err := runRepeatedOps(pinatubo.Config{Tech: pinatubo.DRAM})
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:  "dram",
		Title: fmt.Sprintf("DRAM TRA backend hot path — %d repeated ops on one system", m.ops),
		Metrics: append(repeatedOpsMetrics(m),
			Metric{Key: "sim_seconds_per_op", Value: m.simSeconds / float64(m.ops), Gated: true},
			Metric{Key: "pj_per_bit", Value: m.joules / float64(m.ops) / float64(m.rowBits) * 1e12, Gated: true}),
	}, nil
}

// BatchBench reports the last (largest) row of a batch sweep as ops/s in
// simulated time for the back-to-back and batched schedules. Every
// figure comes from the deterministic simulated clock, so the gated
// makespan measures model regressions, not host noise. A row whose
// makespan did not reproduce the planner's is an error: the two share
// one lowering, so a mismatch is a lowering or scheduler bug.
func BatchBench(rows []BatchRow) (BenchResult, error) {
	if len(rows) == 0 {
		return BenchResult{}, fmt.Errorf("figures: batch bench needs a sweep row")
	}
	for _, r := range rows {
		if !r.PlanMatch {
			return BenchResult{}, fmt.Errorf("figures: batch k=%d makespan %v does not match the plan's %v",
				r.K, r.Makespan, r.PlanMakespan)
		}
	}
	r := rows[len(rows)-1]
	var seqOps, batchedOps float64
	if s := r.Sequential.Seconds(); s > 0 {
		seqOps = float64(r.K) / s
	}
	if m := r.Makespan.Seconds(); m > 0 {
		batchedOps = float64(r.K) / m
	}
	return BenchResult{
		Name:  "batch",
		Title: fmt.Sprintf("Batch — k=%d deep ORs, back to back vs one scheduled batch", r.K),
		Metrics: []Metric{
			{Key: "k", Value: float64(r.K)},
			{Key: "sequential_ops_per_sec", Value: seqOps, Better: HigherIsBetter},
			{Key: "batched_ops_per_sec", Value: batchedOps, Better: HigherIsBetter},
			{Key: "speedup", Value: r.Speedup, Better: HigherIsBetter},
			{Key: "makespan_s", Value: r.Makespan.Seconds(), Gated: true},
		},
	}, nil
}

// FormatBench renders a bench run as a short text block.
func FormatBench(r BenchResult) string {
	var sb strings.Builder
	sb.WriteString(r.Title + "\n")
	for _, m := range r.Metrics {
		role := "informational"
		if m.Gated {
			role = "gated, lower is better"
			if m.Better == HigherIsBetter {
				role = "gated, higher is better"
			}
		}
		fmt.Fprintf(&sb, "  %-24s %14.6g  (%s)\n", m.Key, m.Value, role)
	}
	return sb.String()
}

// WriteBenchJSON writes a bench run as the flat BENCH_<name>.json object,
// one key per metric in order.
func WriteBenchJSON(w io.Writer, r BenchResult) error {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, m := range r.Metrics {
		v, err := json.Marshal(m.Value)
		if err != nil {
			return fmt.Errorf("figures: %s %s: %w", r.Name, m.Key, err)
		}
		sep := ","
		if i == len(r.Metrics)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "  %q: %s%s\n", m.Key, v, sep)
	}
	buf.WriteString("}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// GateBench compares a fresh run against a committed baseline, parsed
// from its BENCH_<name>.json, on every gated metric: a lower-is-better
// metric may not rise more than GateTolerance above the baseline, a
// higher-is-better one may not fall more than GateTolerance below it.
// A baseline that lacks a gated key, or whose gated lower-is-better
// value is not positive, is rejected rather than passed. Improvements
// re-baseline by committing the fresh file.
func GateBench(fresh BenchResult, baseline map[string]float64) error {
	var errs []error
	for _, m := range fresh.Metrics {
		if !m.Gated {
			continue
		}
		base, ok := baseline[m.Key]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("figures: %s baseline lacks gated metric %s — regenerate it with -benchout",
				fresh.Name, m.Key))
		case m.Better == LowerIsBetter && base <= 0:
			errs = append(errs, fmt.Errorf("figures: %s baseline %s %v is not positive — regenerate it with -benchout",
				fresh.Name, m.Key, base))
		case m.Better == LowerIsBetter && m.Value > base*(1+GateTolerance):
			errs = append(errs, fmt.Errorf("figures: %s %s regression: %.6g vs baseline %.6g (limit %.6g, +%.0f%%)",
				fresh.Name, m.Key, m.Value, base, base*(1+GateTolerance), GateTolerance*100))
		case m.Better == HigherIsBetter && m.Value < base*(1-GateTolerance):
			errs = append(errs, fmt.Errorf("figures: %s %s regression: %.6g vs baseline %.6g (floor %.6g, -%.0f%%)",
				fresh.Name, m.Key, m.Value, base, base*(1-GateTolerance), GateTolerance*100))
		}
	}
	return errors.Join(errs...)
}
