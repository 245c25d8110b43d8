package figures

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"pinatubo"
)

// This file holds the Apply hot-path smoke benchmark: a repeated-op
// workload (the shape the program cache and the zero-alloc pass exist
// for) driven through System.Apply. Simulated time is bit-identical with
// the cache on or off, so the regression gate compares the two figures
// that are host-independent: steady-state heap allocations per op and
// the program-cache hit rate. Wall-clock ops/s is reported for the
// before/after tables but never gated — it is machine noise in CI.

// benchRounds is the measured round count of the repeated-op workload;
// each round issues three ops (AND, XOR, 3-source OR) over the same
// operands.
const benchRounds = 128

// ApplyBenchResult is the committed-baseline artifact (BENCH_apply.json).
type ApplyBenchResult struct {
	// Ops is the number of Apply calls in the measured window.
	Ops int `json:"ops"`
	// WallOpsPerSec is host-clock throughput — informational only.
	WallOpsPerSec float64 `json:"wall_ops_per_sec"`
	// AllocsPerOp is steady-state heap allocations per Apply. Gated:
	// a new allocation on the hot path shows up here on any machine.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// CacheHitRate is program-cache hits over lookups for the measured
	// window. Gated: a key or invalidation bug collapses it to ~0.
	CacheHitRate float64 `json:"cache_hit_rate"`
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

// ApplyBench runs the repeated-op workload on the default (PCM) system.
func ApplyBench() (ApplyBenchResult, error) {
	m, err := runRepeatedOps(pinatubo.DefaultConfig())
	if err != nil {
		return ApplyBenchResult{}, err
	}
	return ApplyBenchResult{
		Ops:           m.ops,
		WallOpsPerSec: m.wallOpsPerSec,
		AllocsPerOp:   m.allocsPerOp,
		CacheHitRate:  m.cacheHitRate,
	}, nil
}

// FormatApplyBench renders the benchmark as a short text block.
func FormatApplyBench(res ApplyBenchResult) string {
	return fmt.Sprintf(
		"Apply hot path — %d repeated ops on one system\n"+
			"  wall throughput %12.0f ops/s (informational)\n"+
			"  allocations     %12.1f allocs/op (gated)\n"+
			"  cache hit rate  %12.3f (gated)\n",
		res.Ops, res.WallOpsPerSec, res.AllocsPerOp, res.CacheHitRate)
}

// WriteApplyBenchResultJSON writes an already-computed benchmark result,
// so a caller can both persist and gate one run.
func WriteApplyBenchResultJSON(w io.Writer, res ApplyBenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// GateApplyBench compares a fresh benchmark against the committed
// baseline on the host-independent figures. Allocations per op may not
// regress beyond tolerance; the cache hit rate may not fall more than
// tolerance below the baseline. Improvements re-baseline by committing
// the fresh BENCH_apply.json.
func GateApplyBench(fresh, baseline ApplyBenchResult, tolerance float64) error {
	if baseline.AllocsPerOp <= 0 {
		return fmt.Errorf("figures: baseline allocs/op %v is not positive — regenerate the baseline with -applyout",
			baseline.AllocsPerOp)
	}
	if limit := baseline.AllocsPerOp * (1 + tolerance); fresh.AllocsPerOp > limit {
		return fmt.Errorf("figures: apply allocs/op regression: %.1f vs baseline %.1f (limit %.1f, +%.0f%%)",
			fresh.AllocsPerOp, baseline.AllocsPerOp, limit, tolerance*100)
	}
	if floor := baseline.CacheHitRate * (1 - tolerance); fresh.CacheHitRate < floor {
		return fmt.Errorf("figures: apply cache hit rate regression: %.3f vs baseline %.3f (floor %.3f, -%.0f%%)",
			fresh.CacheHitRate, baseline.CacheHitRate, floor, tolerance*100)
	}
	return nil
}
