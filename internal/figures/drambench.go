package figures

import (
	"encoding/json"
	"fmt"
	"io"

	"pinatubo"
)

// DRAM backend smoke benchmark: the Apply hot-path workload (repeated
// AND / XOR / chained-OR rounds) on a DRAM system. Beyond the two
// host-independent software figures the Apply gate watches (allocations
// per op, program-cache hit rate), the DRAM system injects no faults, so
// its simulated time and energy are fully deterministic — the gate pins
// them too, and any change to the TRA lowering's command count or
// pricing shows up as a gate failure rather than a silent drift.

// DRAMBenchResult is the committed-baseline artifact (BENCH_dram.json).
type DRAMBenchResult struct {
	// Ops is the number of Apply calls in the measured window.
	Ops int `json:"ops"`
	// WallOpsPerSec is host-clock throughput — informational only.
	WallOpsPerSec float64 `json:"wall_ops_per_sec"`
	// AllocsPerOp is steady-state heap allocations per Apply. Gated.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// CacheHitRate is program-cache hits over lookups for the measured
	// window. Gated: the DRAM backend's cached path recomputes words
	// through ComputeInto, so a key bug collapses this to ~0.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SimSecondsPerOp is simulated time per Apply — deterministic (no
	// fault injection on DRAM), host-independent, gated. Moves only if
	// the TRA lowering's command sequences or timing parameters change.
	SimSecondsPerOp float64 `json:"sim_seconds_per_op"`
	// PJPerBit is simulated operation energy per result bit, averaged
	// over the window — deterministic and gated, like SimSecondsPerOp.
	PJPerBit float64 `json:"pj_per_bit"`
}

// DRAMBench runs the repeated-op workload on a DRAM system.
func DRAMBench() (DRAMBenchResult, error) {
	m, err := runRepeatedOps(pinatubo.Config{Tech: pinatubo.DRAM})
	if err != nil {
		return DRAMBenchResult{}, err
	}
	return DRAMBenchResult{
		Ops:             m.ops,
		WallOpsPerSec:   m.wallOpsPerSec,
		AllocsPerOp:     m.allocsPerOp,
		CacheHitRate:    m.cacheHitRate,
		SimSecondsPerOp: m.simSeconds / float64(m.ops),
		PJPerBit:        m.joules / float64(m.ops) / float64(m.rowBits) * 1e12,
	}, nil
}

// FormatDRAMBench renders the benchmark as a short text block.
func FormatDRAMBench(res DRAMBenchResult) string {
	return fmt.Sprintf(
		"DRAM TRA backend hot path — %d repeated ops on one system\n"+
			"  wall throughput %14.0f ops/s (informational)\n"+
			"  allocations     %14.1f allocs/op (gated)\n"+
			"  cache hit rate  %14.3f (gated)\n"+
			"  simulated time  %14.3e s/op (gated, deterministic)\n"+
			"  energy          %14.3f pJ/bit (gated, deterministic)\n",
		res.Ops, res.WallOpsPerSec, res.AllocsPerOp, res.CacheHitRate,
		res.SimSecondsPerOp, res.PJPerBit)
}

// WriteDRAMBenchResultJSON writes an already-computed benchmark result,
// so a caller can both persist and gate one run.
func WriteDRAMBenchResultJSON(w io.Writer, res DRAMBenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// GateDRAMBench compares a fresh benchmark against the committed
// baseline on the host-independent figures. Allocations, simulated time
// and energy may not regress beyond tolerance; the cache hit rate may
// not fall more than tolerance below baseline. Improvements re-baseline
// by committing the fresh BENCH_dram.json.
func GateDRAMBench(fresh, baseline DRAMBenchResult, tolerance float64) error {
	if baseline.AllocsPerOp <= 0 || baseline.SimSecondsPerOp <= 0 || baseline.PJPerBit <= 0 {
		return fmt.Errorf("figures: DRAM baseline has non-positive gated figures — regenerate with -dramout")
	}
	if limit := baseline.AllocsPerOp * (1 + tolerance); fresh.AllocsPerOp > limit {
		return fmt.Errorf("figures: dram allocs/op regression: %.1f vs baseline %.1f (limit %.1f, +%.0f%%)",
			fresh.AllocsPerOp, baseline.AllocsPerOp, limit, tolerance*100)
	}
	if floor := baseline.CacheHitRate * (1 - tolerance); fresh.CacheHitRate < floor {
		return fmt.Errorf("figures: dram cache hit rate regression: %.3f vs baseline %.3f (floor %.3f, -%.0f%%)",
			fresh.CacheHitRate, baseline.CacheHitRate, floor, tolerance*100)
	}
	if limit := baseline.SimSecondsPerOp * (1 + tolerance); fresh.SimSecondsPerOp > limit {
		return fmt.Errorf("figures: dram simulated time regression: %.3e s/op vs baseline %.3e (limit %.3e, +%.0f%%)",
			fresh.SimSecondsPerOp, baseline.SimSecondsPerOp, limit, tolerance*100)
	}
	if limit := baseline.PJPerBit * (1 + tolerance); fresh.PJPerBit > limit {
		return fmt.Errorf("figures: dram energy regression: %.3f pJ/bit vs baseline %.3f (limit %.3f, +%.0f%%)",
			fresh.PJPerBit, baseline.PJPerBit, limit, tolerance*100)
	}
	return nil
}
