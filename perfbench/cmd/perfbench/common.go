package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"pinatubo"
	"pinatubo/perfbench/gen"
	"pinatubo/perfbench/oracle"
	"pinatubo/perfbench/stats"
)

// vmHWM returns the peak resident set of a process in MB, from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// The benchmark times work on CPU clocks rather than the wall clock
// where it can, because the machines it runs on are virtual: the
// hypervisor steals vCPU time in bursts, and the guest kernel leaves
// stolen time out of CPU time but not out of wall time. On a 2-vCPU VM
// steal took 0-50% of a CPU from one minute to the next.
//
// Linux brings the CPU time of the calling thread up to date on every
// read, but that of other running threads only at scheduler ticks, so a
// process-wide reading is exact for long intervals and coarse for short
// ones. Short intervals of single-goroutine work use threadCPU (main
// locks its goroutine to one OS thread); short intervals of parallel
// work use threadClocks, which reads every thread's own clock; long
// intervals of parallel work use processCPU.

// threadCPU returns the CPU time of the calling OS thread.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU returns the CPU time of every thread of this process.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// cpuClock reads a CPU-time clock with clock_gettime, which (unlike
// getrusage) brings the calling thread's time up to date to the
// nanosecond.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// Cannot fail for a valid clock id and pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// threadClocks reads the CPU time of every thread of this process
// exactly: read through a thread's own clock id, the kernel brings that
// thread's time up to date even while it runs on another CPU.
type threadClocks struct{ ids []uintptr }

// refresh lists the process's threads anew.
func (t *threadClocks) refresh() error {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	t.ids = t.ids[:0]
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		// MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED) of the kernel's
		// posix-timers.h: a per-thread (4) scheduler-time (2) clock.
		t.ids = append(t.ids, uintptr(int(int32(^tid<<3|6))))
	}
	return nil
}

// read sums the CPU times of the threads last listed; ok is false if one
// of them has exited since.
func (t *threadClocks) read() (sum time.Duration, ok bool) {
	var ts syscall.Timespec
	for _, id := range t.ids {
		if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
			return 0, false
		}
		sum += time.Duration(ts.Nano())
	}
	return sum, true
}

// procCPU returns the CPU time of every live thread of process pid, the
// sum of the first field of /proc/<pid>/task/*/schedstat (nanoseconds on
// a CPU, stolen time excluded). Exact while the process is idle.
func procCPU(pid int) (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for process %d: %v", pid, err)
	}
	var total time.Duration
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", p, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// allocCounter reads the cumulative heap allocation count without
// stopping the world.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// pinOp maps a generated op kind onto the public API.
func pinOp(k gen.Kind) pinatubo.Op {
	switch k {
	case gen.Or:
		return pinatubo.OpOr
	case gen.And:
		return pinatubo.OpAnd
	case gen.Xor:
		return pinatubo.OpXor
	case gen.Not:
		return pinatubo.OpNot
	default:
		return pinatubo.OpPopcount
	}
}

// dieWithParent makes a child process get SIGKILL if the benchmark dies
// first (say, killed on a timeout), so no daemon outlives a run. The
// signal follows the thread that started the child, which is main's
// locked thread.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// mirrorOp applies op to the host mirror vecs and returns the popcount a
// Popcount op must report (-1 for every other op).
func mirrorOp(vecs [][]uint64, op gen.Op, nbits int) int {
	dst := vecs[op.Dst]
	switch op.Kind {
	case gen.Or:
		srcs := make([][]uint64, len(op.Srcs))
		for i, x := range op.Srcs {
			srcs[i] = vecs[x]
		}
		oracle.Or(dst, srcs...)
	case gen.And:
		oracle.And(dst, vecs[op.Srcs[0]], vecs[op.Srcs[1]])
	case gen.Xor:
		oracle.Xor(dst, vecs[op.Srcs[0]], vecs[op.Srcs[1]])
	case gen.Not:
		oracle.Not(dst, vecs[op.Srcs[0]], nbits)
	case gen.Popcount:
		return oracle.Popcount(dst, nbits)
	case gen.Read:
		// A read leaves the vector as it is.
	}
	return -1
}

// setupTimes runs setup reps times, collecting garbage between reps so
// each starts from the same heap, and returns every rep's CPU time on the
// calling thread in seconds. Only the last rep's state survives.
func setupTimes(reps int, setup func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		c0 := threadCPU()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, (threadCPU() - c0).Seconds())
	}
	return out, nil
}

// msBetween is the wall time from t0 to t1 in float milliseconds.
func msBetween(t0, t1 time.Time) float64 {
	return ms(t1.Sub(t0))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// slicesPerRun is how many wall-clock slices a closed-loop run's
// throughput and latency percentiles are taken over; each is reported as
// the median across slices, so one slice that the host slowed down does
// not move the run's figure.
const slicesPerRun = 3

// closedLoopE2E assembles a closed-loop workload's end-to-end metrics.
func closedLoopE2E(setups []float64, sl *stats.Slices, end time.Time, memMB float64) map[string]float64 {
	return map[string]float64{
		"setup_s":     stats.Median(setups),
		"ops_per_s":   sl.Rate(end),
		"lat_p50_ms":  sl.Percentile(end, 50),
		"lat_p99_ms":  sl.Percentile(end, 99),
		"mem_peak_mb": memMB,
	}
}
