package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pinatubo"
	"pinatubo/perfbench/span"
	"pinatubo/perfbench/stats"
)

// tracer switches span recording on and off in alternating blocks of a
// traced run, so the untraced and traced throughput it compares come from
// the same System, stream and minute. A nil *tracer is a plain untraced
// run.
type tracer struct {
	rec   *span.Recorder
	start time.Time
	block time.Duration
}

// blocksPerRun is how many alternating traced/untraced blocks a traced
// run is cut into. The first block is traced, so the cold first uses
// (program-cache misses) show up as spans.
const blocksPerRun = 6

//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func newTracer(total time.Duration) *tracer {
	return &tracer{rec: span.New(), start: time.Now(), block: total / blocksPerRun}
}

// restart re-aligns the blocks to the start of the measured loop.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func (t *tracer) restart() {
	if t != nil {
		t.start = time.Now()
	}
}

// traced reports whether the current block records spans.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func (t *tracer) traced() bool {
	return t != nil && (time.Since(t.start)/t.block)%2 == 0
}

// active returns the recorder during traced blocks and nil otherwise.
func (t *tracer) active() *span.Recorder {
	if t.traced() {
		return t.rec
	}
	return nil
}

// recorder returns the run's recorder regardless of block (set-up spans).
func (t *tracer) recorder() *span.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// rateSplit accumulates completed work and host time separately for
// untraced and traced blocks.
type rateSplit struct {
	ops  [2]float64
	host [2]time.Duration
}

func (r *rateSplit) add(traced bool, ops int, host time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	r.ops[i] += float64(ops)
	r.host[i] += host
}

// overhead is 1 - traced/untraced throughput.
func (r *rateSplit) overhead() float64 {
	u := stats.Ratio(r.ops[0], r.host[0].Seconds())
	t := stats.Ratio(r.ops[1], r.host[1].Seconds())
	if u == 0 || t == 0 {
		return 0
	}
	return 1 - t/u
}

// serveLayerHost is the workload whose traced run also runs serve-open
// (reference phase and max-rate ladder) after its own blocks. serve-open
// is not one of BENCHMARK.json's workloads, because its wall-clock
// request latencies moved too much between runs of the same code to be
// bounded; this keeps the serve and load-generator layers measured.
const serveLayerHost = "batch-churn"

// runTraced runs the workload in alternating blocks, then the plan probe
// and the per-module probe binary, and derives every per-layer metric.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func runTraced(e env, wl workload) (outcome, []span.Span, error) {
	e.setupReps = 1
	tr := newTracer(e.seconds)
	out, err := wl(e, tr)
	if err != nil {
		return out, nil, err
	}
	if e.name == serveLayerHost {
		so, err := runServeOpen(e, tr)
		if err != nil {
			return out, nil, err
		}
		out.attempted += so.attempted
		out.failed += so.failed
		for k, v := range so.layer {
			if strings.HasPrefix(k, "serve.") || strings.HasPrefix(k, "loadgen.") {
				out.layer[k] = v
			}
		}
		out.layer["failed_frac"] = stats.Ratio(float64(out.failed), float64(out.attempted))
	}
	spanMetrics(tr.rec.Spans(), out.layer)
	if err := planProbe(tr.rec, out.layer); err != nil {
		return out, nil, err
	}
	spans := tr.rec.Spans()
	probeSpans, err := runProbes(e, out.layer, time.Since(tr.rec.Origin()))
	if err != nil {
		return out, nil, err
	}
	return out, append(spans, probeSpans...), nil
}

// planProbe times System.Plan(OpOr, 16, 0) on the daemon's default
// configuration: the call pinatubod makes at start and on every re-plan.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func planProbe(rec *span.Recorder, layer map[string]float64) error {
	sys, err := pinatubo.New(pinatubo.DefaultConfig())
	if err != nil {
		return err
	}
	var ms []float64
	for i := 0; i < 5; i++ {
		id := rec.Begin("pinatubo", "pinatubo.plan", 0, 0)
		t0 := time.Now()
		if _, err := sys.Plan(pinatubo.OpOr, 16, 0); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		rec.End(id)
	}
	layer["pinatubo.plan_ms"] = stats.Median(ms)
	return nil
}

// runProbes runs the perfprobe binary for this workload and merges its
// metrics and spans; its spans are shifted to start at offset on the
// trace's own probe track.
func runProbes(e env, layer map[string]float64, offset time.Duration) ([]span.Span, error) {
	bin := filepath.Join(e.binDir, "perfprobe")
	var stdout bytes.Buffer
	cmd := exec.Command(bin, "--workload", e.name, "--seed", strconv.FormatInt(e.seed, 10))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("per-module probes: %w", err)
	}
	var probe struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   []span.Span        `json:"spans"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &probe); err != nil {
		return nil, fmt.Errorf("per-module probes: %w", err)
	}
	for k, v := range probe.Metrics {
		layer[k] = v
	}
	for i := range probe.Spans {
		sp := &probe.Spans[i]
		sp.Start += offset
		sp.End += offset
		sp.Track = probeTrack
		sp.ID += probeIDBase
		if sp.Parent != 0 {
			sp.Parent += probeIDBase
		}
	}
	return probe.Spans, nil
}

const (
	probeTrack  = 100
	probeIDBase = 1 << 30
)

// spanMetrics derives the span-timed per-layer metrics and the self time
// of each module the workload called, as a share of all the workload's
// traced time. (Probe spans are left out: their durations are set by the
// probes' own repeat counts.)
func spanMetrics(spans []span.Span, layer map[string]float64) {
	us := func(name string) float64 {
		return stats.Median(stats.Ms(span.Durations(spans, name))) * 1e3
	}
	layer["pinatubo.host.write_us"] = us("pinatubo.write")
	layer["pinatubo.host.read_us"] = us("pinatubo.read")
	// Hits and misses are compared on one shape, the 16-row OR: apply-deep
	// misses only on a template's first use, and a median over a mix of
	// shapes would compare shapes, not the cache.
	layer["pinatubo.apply.hit_us"] = us("pinatubo.apply.or16.hit")
	layer["pinatubo.apply.miss_us"] = us("pinatubo.apply.or16.miss")
	// One add span covers all of a window's Adds (a span per Add made the
	// trace file several times larger).
	layer["pinatubo.window.add_us"] = us("pinatubo.window.add") / churnWindow
	layer["pinatubo.window.start_us"] = us("pinatubo.window.start")
	layer["pinatubo.window.exec_us"] = us("pinatubo.window.exec")
	layer["pinatubo.window.merge_us"] = us("pinatubo.window.merge")
	var total time.Duration
	self := span.SelfTime(spans)
	for _, d := range self {
		total += d
	}
	for _, m := range selfModules {
		layer["selftime."+m+"_frac"] = stats.Ratio(self[m].Seconds(), total.Seconds())
	}
}

// selfModules are the modules the workloads' spans are attributed to:
// the System API, requests to the daemon, the load generator's sends, the
// benchmark's own oracle, and the figure entry points.
var selfModules = []string{"pinatubo", "pinatubod", "loadgen", "oracle", "figures"}
