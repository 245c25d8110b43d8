// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time from a seed, checks every output bit
// against a host reference model, and prints one JSON result line:
//
//	perfbench --workload apply-deep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the workload runs in alternating untraced
// and traced blocks; spans around every call into the system give the
// per-module metrics, the per-module probes (the perfprobe binary, which
// imports the internal packages) add kernel and codec figures, and a
// Chrome trace-event file is written next to the build outputs.
//
// perfbench itself uses only the public pinatubo API, the pinatubod
// binary and the figures entry points, so renaming an internal function
// can break the probes but never the end-to-end metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pinatubo/perfbench/span"
)

// env is what a workload run is given.
type env struct {
	name    string
	seed    int64
	seconds time.Duration
	// setupReps is how many times a closed-loop workload sets up anew
	// (the slower set-ups of serve-open and paper-figures repeat fewer
	// times); the median is setup_s and only the last set-up is
	// measured.
	setupReps int
	binDir    string
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int
	failed    int
	// e2e holds every end-to-end metric by name.
	e2e map[string]float64
	// layer holds the per-layer figures this workload produces; the
	// traced run fills in the rest.
	layer map[string]float64
}

// workload runs one named workload; tr is nil for an untraced run.
type workload func(e env, tr *tracer) (outcome, error)

var workloads = map[string]workload{
	"apply-deep":    runApplyDeep,
	"batch-churn":   runBatchChurn,
	"serve-open":    runServeOpen,
	"paper-figures": runPaperFigures,
}

func main() {
	name := flag.String("workload", "", "workload: apply-deep, batch-churn, serve-open, paper-figures")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	binDir := flag.String("bin-dir", ".bench_build", "directory holding the built pinatubod and perfprobe binaries")
	flag.Parse()

	// Short intervals are timed on this thread's CPU clock (threadCPU),
	// so the main goroutine stays on one OS thread.
	runtime.LockOSThread()
	if err := run(*name, *seed, *seconds, *trace, *binDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, binDir string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	e := env{name: name, seed: seed, seconds: time.Duration(seconds) * time.Second, setupReps: 51, binDir: binDir}
	mach := machineRecord()
	line, _ := json.Marshal(map[string]any{"workload": name, "seed": seed, "seconds": seconds,
		"trace": trace, "machine": mach})
	fmt.Println(string(line))

	var res result
	if trace == 0 {
		out, err := wl(e, nil)
		if err != nil {
			return err
		}
		res = newResult(out, endToEnd, out.e2e)
	} else {
		out, spans, err := runTraced(e, wl)
		if err != nil {
			return err
		}
		tracePath := filepath.Join(binDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := writeTrace(tracePath, spans); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: trace written to", tracePath)
		res = newResult(out, perLayer, out.layer)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed or returned wrong bits\n", res.Failed, res.Attempted)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeTrace(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tracks := map[int]string{0: "workload", probeTrack: "perfprobe"}
	for i := 0; i < serveConns; i++ {
		tracks[1+i] = fmt.Sprintf("pinatubod connection %d", i)
	}
	if err := span.WriteChrome(f, spans, tracks); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult reports exactly the metrics of one declared set, in its
// units, taking their values from vals. A metric the workload did not
// produce reads 0: per-layer figures of a module it never calls.
func newResult(out outcome, set []metricDef, vals map[string]float64) result {
	r := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, d := range set {
		r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return r
}
