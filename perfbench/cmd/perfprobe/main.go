// Command perfprobe is the per-module half of the traced benchmark run.
// It imports the program's internal packages and times their public
// functions directly, at the shapes the workloads use, inside spans:
//
//	perfprobe --workload apply-deep --seed 1
//
// It prints one JSON object with the metrics and the spans. perfbench
// runs it after a traced workload and merges both into its result and
// trace file. Kept apart from perfbench so that renaming an internal
// function can break a probe but never the end-to-end measurement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"pinatubo/internal/analog"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/figures"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
	"pinatubo/internal/serve"
	"pinatubo/perfbench/gen"
	"pinatubo/perfbench/span"
	"pinatubo/perfbench/stats"
)

// probeTime is how long each kernel probe repeats its call.
const probeTime = 200 * time.Millisecond

func main() {
	workload := flag.String("workload", "", "the workload the traced run measured")
	seed := flag.Int64("seed", 1, "input seed")
	flag.Parse()
	rec := span.New()
	m := map[string]float64{}
	err := kernels(rec, *seed, m)
	if err == nil {
		err = codec(rec, m)
	}
	if err == nil && *workload == "paper-figures" {
		err = figurePipeline(rec, m)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfprobe:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(map[string]any{"metrics": m, "spans": rec.Spans()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfprobe:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// repeat calls f until probeTime has passed (at least 3 times), each
// call inside a span, and returns the median call time.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func repeat(rec *span.Recorder, module, name string, f func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || time.Since(start) < probeTime {
		id := rec.Begin(module, name, 0, int64(len(ds)))
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(time.Since(t0))/float64(time.Nanosecond))
		rec.End(id)
	}
	return time.Duration(stats.Median(ds) * float64(time.Nanosecond)), nil
}

func gbps(bytes int, d time.Duration) float64 {
	return stats.Ratio(float64(bytes), d.Seconds()) / 1e9
}

// kernels replays the sense and bitvec word kernels at apply-deep's
// shapes (full 2^19-bit rows; 128-row and 2-row ORs) beside a copy() of
// the same bytes, the roofline they are held to, and times the memarch
// row store.
func kernels(rec *span.Recorder, seed int64, m map[string]float64) error {
	geo := memarch.Default()
	words := geo.RowWords()
	rng := gen.Rand(seed, "perfprobe/rows")
	rows := make([][]uint64, 128)
	for i := range rows {
		rows[i] = gen.Words(rng, words)
	}
	dst := make([]uint64, words)
	arr, err := sense.NewArray(nvm.Get(nvm.PCM), analog.DefaultSenseConfig(), 8)
	if err != nil {
		return err
	}
	rowBytes := words * 8

	flat := make([]uint64, 128*words)
	flatDst := make([]uint64, 128*words)
	for i, r := range rows {
		copy(flat[i*words:], r)
	}
	d, err := repeat(rec, "ref", "ref.copy", func() error { copy(flatDst, flat); return nil })
	if err != nil {
		return err
	}
	m["ref.copy_gbps"] = gbps(len(flat)*8, d)

	if d, err = repeat(rec, "sense", "sense.or_deep", func() error {
		return arr.ComputeWordsInto(dst, sense.OpOR, rows)
	}); err != nil {
		return err
	}
	m["sense.or_deep_gbps"] = gbps(128*rowBytes, d)
	if d, err = repeat(rec, "sense", "sense.or2", func() error {
		return arr.ComputeWordsInto(dst, sense.OpOR, rows[:2])
	}); err != nil {
		return err
	}
	m["sense.or2_gbps"] = gbps(2*rowBytes, d)
	var sink int
	if d, err = repeat(rec, "bitvec", "bitvec.popcount", func() error {
		sink += bitvec.PopcountWords(flat, len(flat)*64)
		return nil
	}); err != nil {
		return err
	}
	_ = sink
	m["bitvec.popcount_gbps"] = gbps(len(flat)*8, d)

	mem, err := memarch.NewMemory(geo, nvm.Get(nvm.PCM))
	if err != nil {
		return err
	}
	addr := func(i int) memarch.RowAddr { return memarch.RowAddr{Row: i % geo.RowsPerSubarray} }
	i := 0
	if d, err = repeat(rec, "memarch", "memarch.write_row", func() error {
		i++
		return mem.WriteRow(addr(i), rows[i%128])
	}); err != nil {
		return err
	}
	m["memarch.write_row_ns"] = float64(d) / float64(time.Nanosecond)
	if d, err = repeat(rec, "memarch", "memarch.read_row", func() error {
		i++
		dst = mem.ReadRow(addr(i))
		return nil
	}); err != nil {
		return err
	}
	m["memarch.read_row_ns"] = float64(d) / float64(time.Nanosecond)
	return nil
}

// codec times pinatubod's own codec, encoding/json on serve.Request and
// serve.Response, at serve-open's most common shapes: decoding a
// two-source op request and encoding its reply.
func codec(rec *span.Recorder, m map[string]float64) error {
	line := []byte(`{"id":12345,"tenant":"t3","type":"op","op":"or","dst":"v1","srcs":["v2","v5"]}`)
	count := 2048
	resp := serve.Response{ID: 12345, OK: true, Window: 678, LatencyNS: 91234, Class: "intra-subarray", Count: &count}
	d, err := repeatBatch(rec, "serve", "serve.decode", func() error {
		var req serve.Request
		return json.Unmarshal(line, &req)
	})
	if err != nil {
		return err
	}
	m["serve.decode_us"] = float64(d) / float64(time.Microsecond)
	if d, err = repeatBatch(rec, "serve", "serve.encode", func() error {
		_, err := json.Marshal(resp)
		return err
	}); err != nil {
		return err
	}
	m["serve.encode_us"] = float64(d) / float64(time.Microsecond)
	return nil
}

// repeatBatch times calls too short to time one by one: each span covers
// a batch of 1000 calls, and the result is the median per call.
func repeatBatch(rec *span.Recorder, module, name string, f func() error) (time.Duration, error) {
	const n = 1000
	d, err := repeat(rec, module, name, func() error {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	return d / n, err
}

// figurePipeline times the stages behind the Fig. 10/12 entry points:
// building the evaluation traces, building the engines, and running every
// trace on the SIMD baseline and on the two Pinatubo engines.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func figurePipeline(rec *span.Recorder, m map[string]float64) error {
	timed := func(module, name string, f func() error) (float64, error) {
		id := rec.Begin(module, name, 0, 0)
		t0 := time.Now()
		err := f()
		rec.End(id)
		return time.Since(t0).Seconds(), err
	}
	var traces []figures.NamedTrace
	s, err := timed("figures", "figures.alltraces", func() (err error) {
		traces, err = figures.AllTraces()
		return err
	})
	if err != nil {
		return err
	}
	m["figures.alltraces_s"] = s
	var eng *figures.EngineSet
	if s, err = timed("figures", "figures.engines", func() (err error) {
		eng, err = figures.Engines()
		return err
	}); err != nil {
		return err
	}
	m["figures.engines_s"] = s
	if s, err = timed("workload", "workload.run.simd", func() error {
		for _, nt := range traces {
			if _, err := nt.Trace.Run(eng.SIMD); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["figures.simd_run_s"] = s
	if s, err = timed("workload", "workload.run.pinatubo", func() error {
		for _, nt := range traces {
			if _, err := nt.Trace.Run(eng.Pinatubo2); err != nil {
				return err
			}
			if _, err := nt.Trace.Run(eng.Pinatubo128); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["figures.pim_run_s"] = s
	return nil
}
