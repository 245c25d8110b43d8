package main

import (
	"fmt"
	"runtime"
	"time"

	"pinatubo"
	"pinatubo/perfbench/gen"
	"pinatubo/perfbench/oracle"
	"pinatubo/perfbench/stats"
)

// batch-churn shape: short vectors, a pool of them, fixed-size windows,
// and a few vectors freed, reallocated and rewritten between windows.
const (
	churnBits    = 4096
	churnVectors = 96
	churnWindow  = 12
	churnVictims = 3
	// churnRoundOps is how many ops one System runs before the loop
	// replaces it with a fresh one, and peak RSS is read at the end of the
	// first round. The program-cache footprint grows with work done, so
	// without rounds memory, collector time and with them the window
	// figures would grow with however many windows a run managed (a 20 s
	// run reached 740 MB).
	churnRoundOps = 48000
)

// churnState is batch-churn's live DRAM system and its host mirror.
type churnState struct {
	sys    *pinatubo.System
	vecs   []*pinatubo.BitVector
	mirror [][]uint64
}

func setupChurn(data [][]uint64, tr *tracer) (*churnState, error) {
	cfg := pinatubo.DefaultConfig()
	cfg.Tech = pinatubo.DRAM
	sys, err := pinatubo.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &churnState{sys: sys}
	rec := tr.recorder()
	for _, words := range data {
		v, err := sys.Alloc(churnBits)
		if err != nil {
			return nil, err
		}
		id := rec.Begin("pinatubo", "pinatubo.write", 0, 0)
		if _, err := sys.Write(v, words); err != nil {
			return nil, err
		}
		rec.End(id)
		st.vecs = append(st.vecs, v)
		st.mirror = append(st.mirror, append([]uint64(nil), words...))
	}
	return st, nil
}

// batchOps resolves generated ops onto the live vectors.
func (st *churnState) batchOps(ops []gen.Op) []pinatubo.BatchOp {
	out := make([]pinatubo.BatchOp, len(ops))
	for i, op := range ops {
		srcs := make([]*pinatubo.BitVector, len(op.Srcs))
		for j, x := range op.Srcs {
			srcs[j] = st.vecs[x]
		}
		out[i] = pinatubo.BatchOp{Op: pinOp(op.Kind), Dst: st.vecs[op.Dst], Srcs: srcs}
	}
	return out
}

// checkWindow replays the window on the mirror in op order, compares
// each popcount at its point in the order, then reads back every
// destination. It returns the number of failed ops.
func (st *churnState) checkWindow(ops []gen.Op, res pinatubo.BatchResult, tr *tracer, req int64) (int, error) {
	failed := 0
	dsts := map[int]bool{}
	for i, op := range ops {
		want := mirrorOp(st.mirror, op, churnBits)
		if op.Kind != gen.Popcount {
			dsts[op.Dst] = true
			continue
		}
		if c := res.Results[i].Count; c == nil || *c != want {
			failed++
			fmt.Printf("batch-churn: window %d op %d: wrong popcount\n", req, i)
		}
	}
	rec := tr.active()
	for i, op := range ops {
		if !dsts[op.Dst] {
			continue
		}
		delete(dsts, op.Dst)
		id := rec.Begin("pinatubo", "pinatubo.read", 0, req)
		got, _, err := st.sys.Read(st.vecs[op.Dst])
		rec.End(id)
		if err != nil {
			return failed, err
		}
		if wrong := oracle.WrongBits(got, st.mirror[op.Dst], churnBits); wrong > 0 {
			failed++
			fmt.Printf("batch-churn: window %d op %d: %d wrong bits\n", req, i, wrong)
			copy(st.mirror[op.Dst], got)
		}
	}
	return failed, nil
}

// churn frees, reallocates and rewrites the victims through the host
// path.
func (st *churnState) churn(victims []int, stream *gen.ChurnStream, tr *tracer, req int64) error {
	rec := tr.active()
	for _, v := range victims {
		if err := st.sys.Free(st.vecs[v]); err != nil {
			return err
		}
		nv, err := st.sys.Alloc(churnBits)
		if err != nil {
			return err
		}
		words := stream.Fill(churnBits / 64)
		id := rec.Begin("pinatubo", "pinatubo.write", 0, req)
		_, err = st.sys.Write(nv, words)
		rec.End(id)
		if err != nil {
			return err
		}
		st.vecs[v] = nv
		copy(st.mirror[v], words)
	}
	return nil
}

// perfDelta sums System counters over the rounds of a run.
type perfDelta struct{ hits, misses, gets, reuses float64 }

func (d *perfDelta) add(from, to pinatubo.PerfStats) {
	d.hits += float64(to.ProgramCacheHits - from.ProgramCacheHits)
	d.misses += float64(to.ProgramCacheMisses - from.ProgramCacheMisses)
	d.gets += float64(to.SandboxPoolGets - from.SandboxPoolGets)
	d.reuses += float64(to.SandboxPoolReuses - from.SandboxPoolReuses)
}

// runBatchChurn is the batch-churn workload: DRAM backend, closed loop,
// one caller, pipelined windows — window N+1 is admitted with
// BatchBuilder.Add while window N runs — with vectors freed, reallocated
// and rewritten between windows.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func runBatchChurn(e env, tr *tracer) (outcome, error) {
	rng := gen.Rand(e.seed, "batch-churn/data")
	var data [][]uint64
	for i := 0; i < churnVectors; i++ {
		data = append(data, gen.Words(rng, churnBits/64))
	}
	var st *churnState
	setups, err := setupTimes(e.setupReps, func() error {
		st = nil
		var err error
		st, err = setupChurn(data, tr)
		return err
	})
	if err != nil {
		return outcome{}, err
	}

	// The loop is timed on every thread's clock, not this thread's alone,
	// and while main's goroutine is locked to its thread every wait for a
	// window ends in a hand-off to that thread, which raised the window
	// p99 by a third; a caller of the API would not lock.
	runtime.UnlockOSThread()
	defer runtime.LockOSThread()

	stream := gen.NewChurnStream(e.seed, churnVectors, churnWindow)
	ac := newAllocCounter()
	var (
		out                 = outcome{layer: map[string]float64{}}
		split               rateSplit
		mem                 float64
		simNs, simJ, simBit float64
		simCount            int
		allocs, allocOps    float64
		shards, windows     float64
		lats                []float64
		perf                perfDelta
		clocks              threadClocks
	)
	b := st.sys.NewBatchBuilder()
	cur := stream.Window()
	for _, op := range st.batchOps(cur) {
		if err := b.Add(op); err != nil {
			return out, err
		}
	}
	perf0 := st.sys.PerfStats()
	start := time.Now()
	deadline := start.Add(e.seconds)
	sl := stats.NewSlices(start, e.seconds/slicesPerRun)
	tr.restart()
	for w := int64(0); mem == 0 || time.Now().Before(deadline); w++ {
		traced, rec := tr.traced(), tr.active()
		// A window is timed on the CPU clocks of all the process's
		// threads (the shards run on several), each read exactly: the
		// wall clock also counts the time the host gave the vCPUs to
		// others and waking an idle vCPU, which raised the window p99 by
		// up to half on a busy host, and the process clock lags by up to
		// a scheduler tick per running thread, a tick being several times
		// a window. Listing the threads stays outside the timed span.
		if err := clocks.refresh(); err != nil {
			return out, err
		}
		a0 := ac.read()
		c0, ok0 := clocks.read()
		sid := rec.Begin("pinatubo", "pinatubo.window.start", 0, w)
		run, err := b.Start()
		rec.End(sid)
		if err != nil {
			return out, err
		}
		started := time.Now()
		next := stream.Window()
		aid := rec.Begin("pinatubo", "pinatubo.window.add", 0, w+1)
		for _, op := range st.batchOps(next) {
			if err := b.Add(op); err != nil {
				return out, err
			}
		}
		rec.End(aid)
		<-run.Done()
		rec.Add("pinatubo", "pinatubo.window.exec", 0, w, started, time.Now())
		mid := rec.Begin("pinatubo", "pinatubo.window.merge", 0, w)
		res, err := run.Wait()
		rec.End(mid)
		c1, ok1 := clocks.read()
		a1 := ac.read()
		out.attempted += len(cur)
		if err != nil {
			out.failed += len(cur)
			fmt.Printf("batch-churn: window %d: %v\n", w, err)
			return out, nil
		}
		if simCount < simOps {
			simNs += float64(res.Makespan) / float64(time.Nanosecond)
			simCount += len(cur)
			for _, r := range res.Results {
				simJ += r.EnergyJoules
				simBit += churnBits
			}
		}
		shards += float64(res.Shards)
		windows++

		oid := rec.Begin("oracle", "oracle.check", 0, w)
		failed, err := st.checkWindow(cur, res, tr, w)
		rec.End(oid)
		if err != nil {
			return out, err
		}
		out.failed += failed

		victims := stream.Victims(next, churnVictims)
		a2 := ac.read()
		c2, ok2 := clocks.read()
		if err := st.churn(victims, stream, tr, w); err != nil {
			return out, err
		}
		c3, ok3 := clocks.read()
		a3 := ac.read()
		// A thread that exited mid-window took its time with it; such a
		// window is left out of the timings (Go seldom ends a thread).
		if ok0 && ok1 && ok2 && ok3 {
			split.add(traced, len(cur), c1-c0+c3-c2)
			if !traced {
				now := time.Now()
				sl.Add(now, len(cur), c1-c0+c3-c2)
				sl.Latency(now, ms(c1-c0))
				lats = append(lats, ms(c1-c0))
			}
		}
		if !traced {
			allocs += float64(a1 - a0 + a3 - a2)
			allocOps += float64(len(cur))
		}
		cur = next
		if out.attempted%churnRoundOps != 0 {
			continue
		}
		// A new round: a fresh System with the initial contents, the
		// next window re-admitted on it.
		if mem == 0 {
			if mem, err = vmHWM("self"); err != nil {
				return out, err
			}
		}
		perf.add(perf0, st.sys.PerfStats())
		if st, err = setupChurn(data, tr); err != nil {
			return out, err
		}
		b = st.sys.NewBatchBuilder()
		for _, op := range st.batchOps(cur) {
			if err := b.Add(op); err != nil {
				return out, err
			}
		}
		perf0 = st.sys.PerfStats()
	}
	perf.add(perf0, st.sys.PerfStats())

	fmt.Printf("batch-churn: %d ops in %.0f windows, %d latency samples in %d slices\n",
		out.attempted, windows, sl.Samples(deadline), slicesPerRun)
	out.e2e = closedLoopE2E(setups, sl, deadline, mem)
	// The slowest one in a hundred windows falls at different points in
	// every run, so a slice's p99 swings with how many landed in it; the
	// p99 is taken over the whole run.
	out.e2e["lat_p99_ms"] = stats.Percentile(lats, 99)
	out.layer["sim_ns_per_op"] = simNs / float64(simCount)
	out.layer["sim_pj_per_bit"] = simJ * 1e12 / simBit
	out.layer["allocs_per_op"] = stats.Ratio(allocs, allocOps)
	out.layer["failed_frac"] = stats.Ratio(float64(out.failed), float64(out.attempted))
	out.layer["cmdstream.hit_rate"] = stats.Ratio(perf.hits, perf.hits+perf.misses)
	out.layer["cmdstream.miss_per_op"] = stats.Ratio(perf.misses, float64(out.attempted))
	out.layer["pinatubo.window.shards"] = stats.Ratio(shards, windows)
	out.layer["pinatubo.window.ops"] = churnWindow
	out.layer["pinatubo.pool.reuse_rate"] = stats.Ratio(perf.reuses, perf.gets)
	out.layer["trace.overhead_frac"] = split.overhead()
	return out, nil
}
