package main

import (
	"fmt"
	"time"

	"pinatubo"
	"pinatubo/perfbench/gen"
	"pinatubo/perfbench/oracle"
	"pinatubo/perfbench/stats"
)

// simOps is how many leading ops of a closed-loop stream the simulated
// time and energy figures cover: a fixed prefix, so they repeat exactly
// for a seed however fast the host is.
const simOps = 1000

// applyState is apply-deep's live system and its host mirror.
type applyState struct {
	sys    *pinatubo.System
	vecs   []*pinatubo.BitVector
	mirror [][]uint64
	bits   int
}

// setupApply builds the PCM system and fills the fixed operand set: 128
// sparse source rows and 8 destination rows, all full 2^19-bit rows in
// one subarray.
func setupApply(data [][]uint64, tr *tracer) (*applyState, error) {
	sys, err := pinatubo.New(pinatubo.DefaultConfig())
	if err != nil {
		return nil, err
	}
	st := &applyState{sys: sys, bits: sys.RowBits()}
	st.vecs, err = sys.AllocGroup(len(data), st.bits)
	if err != nil {
		return nil, err
	}
	rec := tr.recorder()
	for i, words := range data {
		id := rec.Begin("pinatubo", "pinatubo.write", 0, 0)
		if _, err := sys.Write(st.vecs[i], words); err != nil {
			return nil, err
		}
		rec.End(id)
		st.mirror = append(st.mirror, append([]uint64(nil), words...))
	}
	return st, nil
}

// applyData makes the operand contents: sparse sources (a 128-row OR of
// them is about 63% ones, not all ones) and dense destinations.
func applyData(seed int64, words int) [][]uint64 {
	rng := gen.Rand(seed, "apply-deep/data")
	var data [][]uint64
	for i := 0; i < gen.ApplySources; i++ {
		data = append(data, gen.SparseWords(rng, words, 7))
	}
	for i := 0; i < gen.ApplyDsts; i++ {
		data = append(data, gen.Words(rng, words))
	}
	return data
}

// check compares the system's result for op (already applied to the
// mirror) and returns the number of wrong bits; a wrong popcount counts
// as its absolute error. On a mismatch the mirror is resynchronised to
// the system so later ops are checked independently.
func (st *applyState) check(op gen.Op, res pinatubo.Result, want int, tr *tracer, req int64) (int, error) {
	if op.Kind == gen.Popcount {
		if res.Count == nil {
			return 1, nil
		}
		return max(*res.Count-want, want-*res.Count), nil
	}
	rec := tr.active()
	id := rec.Begin("pinatubo", "pinatubo.read", 0, req)
	got, _, err := st.sys.Read(st.vecs[op.Dst])
	rec.End(id)
	if err != nil {
		return 0, err
	}
	wrong := oracle.WrongBits(got, st.mirror[op.Dst], st.bits)
	if wrong > 0 {
		copy(st.mirror[op.Dst], got)
	}
	return wrong, nil
}

// runApplyDeep is the apply-deep workload: PCM, closed loop, one caller,
// sequential System.Apply over full rows in one subarray.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func runApplyDeep(e env, tr *tracer) (outcome, error) {
	words := pinatubo.DefaultGeometry().RowBits() / 64
	data := applyData(e.seed, words)
	var st *applyState
	setups, err := setupTimes(e.setupReps, func() error {
		st = nil
		var err error
		st, err = setupApply(data, tr)
		return err
	})
	if err != nil {
		return outcome{}, err
	}

	stream := gen.NewApplyStream(e.seed)
	ac := newAllocCounter()
	var (
		out                 = outcome{layer: map[string]float64{}}
		split               rateSplit
		simNs, simJ, simBit float64
		allocs, allocOps    float64
		srcs                []*pinatubo.BitVector
	)
	perf0 := st.sys.PerfStats()
	start := time.Now()
	deadline := start.Add(e.seconds)
	sl := stats.NewSlices(start, e.seconds/slicesPerRun)
	tr.restart()
	for n := 0; n < simOps || time.Now().Before(deadline); n++ {
		op := stream.Next()
		traced, rec := tr.traced(), tr.active()
		srcs = srcs[:0]
		for _, x := range op.Srcs {
			srcs = append(srcs, st.vecs[x])
		}
		var before pinatubo.PerfStats
		if rec != nil {
			before = st.sys.PerfStats()
		}
		a0 := ac.read()
		t0, c0 := time.Now(), threadCPU()
		res, err := st.sys.Apply(pinOp(op.Kind), st.vecs[op.Dst], srcs)
		t1, c1 := time.Now(), threadCPU()
		a1 := ac.read()
		if rec != nil {
			cache := "miss"
			if st.sys.PerfStats().ProgramCacheHits > before.ProgramCacheHits {
				cache = "hit"
			}
			rec.Add("pinatubo", fmt.Sprintf("pinatubo.apply.%v%d.%s", op.Kind, len(op.Srcs), cache), 0, int64(n), t0, t1)
		}
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Printf("apply-deep: op %d (%v): %v\n", n, op.Kind, err)
			continue
		}
		split.add(traced, 1, c1-c0)
		if !traced {
			sl.Add(t1, 1, c1-c0)
			sl.Latency(t1, ms(c1-c0))
			allocs += float64(a1 - a0)
			allocOps++
		}
		if n < simOps {
			simNs += float64(res.Latency) / float64(time.Nanosecond)
			simJ += res.EnergyJoules
			simBit += float64(st.bits)
		}

		oid := rec.Begin("oracle", "oracle.check", 0, int64(n))
		want := mirrorOp(st.mirror, op, st.bits)
		rec.End(oid)
		wrong, err := st.check(op, res, want, tr, int64(n))
		if err != nil {
			return out, err
		}
		if wrong > 0 {
			out.failed++
			fmt.Printf("apply-deep: op %d (%v) returned %d wrong bits\n", n, op.Kind, wrong)
		}
	}
	perf := st.sys.PerfStats()

	mem, err := vmHWM("self")
	if err != nil {
		return out, err
	}
	fmt.Printf("apply-deep: %d ops, %d latency samples in %d slices\n", out.attempted, sl.Samples(deadline), slicesPerRun)
	out.e2e = closedLoopE2E(setups, sl, deadline, mem)
	hits := float64(perf.ProgramCacheHits - perf0.ProgramCacheHits)
	misses := float64(perf.ProgramCacheMisses - perf0.ProgramCacheMisses)
	out.layer["sim_ns_per_op"] = simNs / simOps
	out.layer["sim_pj_per_bit"] = simJ * 1e12 / simBit
	out.layer["allocs_per_op"] = stats.Ratio(allocs, allocOps)
	out.layer["failed_frac"] = stats.Ratio(float64(out.failed), float64(out.attempted))
	out.layer["cmdstream.hit_rate"] = stats.Ratio(hits, hits+misses)
	out.layer["cmdstream.miss_per_op"] = stats.Ratio(misses, float64(out.attempted))
	out.layer["trace.overhead_frac"] = split.overhead()
	return out, nil
}
