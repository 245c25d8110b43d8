package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"pinatubo"
)

// This file holds the batch-execution sweep: System.Batch exercised over a
// widening op mix on a geometry that spreads operations across banks, so
// the event-driven scheduler can overlap them. Each point is cross-checked
// against the planner: at fault rate 0 the batch makespan must reproduce
// Plan's prediction bit-identically — the two share one lowering path
// through the cmdstream IR, so a mismatch is a scheduler bug, not noise.

// DefaultBatchKs is the batch-size sweep cmd/figures runs.
var DefaultBatchKs = []int{1, 2, 4, 8, 16}

// BatchRow is one batch-size point of the sweep.
type BatchRow struct {
	// K is the number of deep-OR operations in the batch.
	K int
	// Shards is how many isolated memory shards the data effects ran on.
	Shards int
	// Sequential is the back-to-back time of the K requests with no
	// overlap.
	Sequential time.Duration
	// Makespan is the scheduled end-to-end time of the batch.
	Makespan time.Duration
	// Speedup is Sequential / Makespan.
	Speedup float64
	// PlanMakespan is what Plan predicted for K in-flight ops of this
	// shape, and PlanMatch whether the batch reproduced it bit-identically.
	PlanMakespan time.Duration
	PlanMatch    bool
}

// batchSpreadGeometry is a single-channel, single-rank organisation with
// one subarray per bank, so consecutive full-row allocation groups land in
// consecutive banks and a K-op batch exercises K independent bank
// resources.
func batchSpreadGeometry() pinatubo.Geometry {
	return pinatubo.Geometry{
		Channels:         1,
		RanksPerChannel:  1,
		ChipsPerRank:     8,
		BanksPerChip:     16,
		SubarraysPerBank: 1,
		MatsPerSubarray:  16,
		RowsPerSubarray:  256,
		MatRowBits:       4096,
		MuxRatio:         32,
	}
}

// batchDeepORs allocates k maximally-deep full-row OR operations, one per
// bank, on a fresh spread-geometry system.
func batchDeepORs(k int) (*pinatubo.System, []pinatubo.BatchOp, error) {
	cfg := pinatubo.DefaultConfig()
	cfg.Geometry = batchSpreadGeometry()
	sys, err := pinatubo.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	ops := make([]pinatubo.BatchOp, k)
	for i := range ops {
		srcs, err := sys.AllocGroup(sys.MaxORRows(), sys.RowBits())
		if err != nil {
			return nil, nil, err
		}
		dst, err := sys.Alloc(sys.RowBits())
		if err != nil {
			return nil, nil, err
		}
		ops[i] = pinatubo.BatchOp{Op: pinatubo.OpOr, Dst: dst, Srcs: srcs}
	}
	return sys, ops, nil
}

// BatchSweep runs a K-deep-OR batch at each batch size and cross-checks
// every makespan against the planner's prediction.
func BatchSweep(ks []int) ([]BatchRow, error) {
	var out []BatchRow
	for _, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("figures: batch size %d", k)
		}
		sys, ops, err := batchDeepORs(k)
		if err != nil {
			return nil, err
		}
		br, err := sys.Batch(ops, pinatubo.WithArbiter(pinatubo.ArbFIFO))
		if err != nil {
			return nil, err
		}
		rep, err := sys.Plan(pinatubo.OpOr, k, 0, pinatubo.WithArbiter(pinatubo.ArbFIFO))
		if err != nil {
			return nil, err
		}
		plan := rep.Points[len(rep.Points)-1].Makespan
		out = append(out, BatchRow{
			K:            k,
			Shards:       br.Shards,
			Sequential:   br.Sequential,
			Makespan:     br.Makespan,
			Speedup:      br.Speedup,
			PlanMakespan: plan,
			PlanMatch:    br.Makespan == plan,
		})
	}
	return out, nil
}

// FormatBatch renders the sweep as an aligned text table.
func FormatBatch(rows []BatchRow) string {
	var sb strings.Builder
	sb.WriteString("Batch execution — K deep ORs spread across banks, one scheduled batch\n")
	sb.WriteString("  (makespan cross-checked bit-identically against the planner at every K)\n")
	for _, r := range rows {
		match := "plan match"
		if !r.PlanMatch {
			match = fmt.Sprintf("PLAN MISMATCH (plan %v)", r.PlanMakespan)
		}
		fmt.Fprintf(&sb, "  k=%-3d shards %-3d sequential %10v  makespan %10v  speedup %5.2fx  %s\n",
			r.K, r.Shards, r.Sequential, r.Makespan, r.Speedup, match)
	}
	return sb.String()
}

// WriteBatchCSV emits: k, shards, sequential_s, makespan_s, speedup,
// plan_match.
func WriteBatchCSV(w io.Writer, rows []BatchRow) error {
	cw := csv.NewWriter(w)
	header := []string{"k", "shards", "sequential_s", "makespan_s", "speedup", "plan_match"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(r.K),
			strconv.Itoa(r.Shards),
			strconv.FormatFloat(r.Sequential.Seconds(), 'e', 6, 64),
			strconv.FormatFloat(r.Makespan.Seconds(), 'e', 6, 64),
			strconv.FormatFloat(r.Speedup, 'f', 3, 64),
			strconv.FormatBool(r.PlanMatch),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
