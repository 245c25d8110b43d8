package figures

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchCase is one registered bench, how to run it and the metrics its
// committed baseline gates.
type benchCase struct {
	name  string
	run   func() (BenchResult, error)
	gated []string
}

var benchCases = []benchCase{
	{"apply", ApplyBench, []string{"allocs_per_op", "cache_hit_rate"}},
	{"dram", DRAMBench, []string{"allocs_per_op", "cache_hit_rate", "sim_seconds_per_op", "pj_per_bit"}},
	{"batch", func() (BenchResult, error) {
		rows, err := BatchSweep(DefaultBatchKs)
		if err != nil {
			return BenchResult{}, err
		}
		return BatchBench(rows)
	}, []string{"makespan_s"}},
}

// roundTrip writes res as baseline JSON and parses it back the way
// cmd/figures reads a -benchgate file.
func roundTrip(t *testing.T, res BenchResult) (map[string]float64, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("%v\n%s", err, buf.Bytes())
	}
	return back, buf.Bytes()
}

// withValue returns a copy of res with the metric named key set to v.
func withValue(res BenchResult, key string, v float64) BenchResult {
	res.Metrics = slices.Clone(res.Metrics)
	for i := range res.Metrics {
		if res.Metrics[i].Key == key {
			res.Metrics[i].Value = v
		}
	}
	return res
}

func metric(t *testing.T, res BenchResult, key string) Metric {
	t.Helper()
	for _, m := range res.Metrics {
		if m.Key == key {
			return m
		}
	}
	t.Fatalf("%s has no metric %s", res.Name, key)
	return Metric{}
}

// benchCaseNamed returns the registered bench called name.
func benchCaseNamed(t *testing.T, name string) benchCase {
	t.Helper()
	for _, bc := range benchCases {
		if bc.name == name {
			return bc
		}
	}
	t.Fatalf("no bench %q", name)
	return benchCase{}
}

// checkBenchGate runs the bench once and pins its gate: the fresh run
// passes against itself through a JSON round trip, each gated metric
// moved against its direction trips the gate on its own, and a zero
// baseline or one missing a gated key is rejected.
func checkBenchGate(t *testing.T, bc benchCase) {
	t.Helper()
	res, err := bc.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != bc.name {
		t.Errorf("Name = %q", res.Name)
	}
	var gated []string
	for _, m := range res.Metrics {
		if m.Gated {
			gated = append(gated, m.Key)
		}
	}
	if !slices.Equal(gated, bc.gated) {
		t.Fatalf("gated metrics %v, want %v", gated, bc.gated)
	}
	if text := FormatBench(res); strings.Count(text, "(gated") != len(bc.gated) {
		t.Errorf("format marks the wrong metrics gated:\n%s", text)
	}

	baseline, _ := roundTrip(t, res)
	if len(baseline) != len(res.Metrics) {
		t.Errorf("JSON has %d keys, result %d metrics", len(baseline), len(res.Metrics))
	}
	for _, m := range res.Metrics {
		if baseline[m.Key] != m.Value {
			t.Errorf("JSON round trip changed %s: %v != %v", m.Key, baseline[m.Key], m.Value)
		}
	}
	if err := GateBench(res, baseline); err != nil {
		t.Errorf("self-gate failed: %v", err)
	}

	for _, key := range bc.gated {
		m := metric(t, res, key)
		worse := m.Value * 2
		if m.Better == HigherIsBetter {
			worse = m.Value / 2
		}
		err := GateBench(withValue(res, key, worse), baseline)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s moved from %v to %v: gate error %v", key, m.Value, worse, err)
		}

		missing := maps.Clone(baseline)
		delete(missing, key)
		if err := GateBench(res, missing); err == nil {
			t.Errorf("baseline without %s accepted", key)
		}
	}
	zero := maps.Clone(baseline)
	for k := range zero {
		zero[k] = 0
	}
	if err := GateBench(res, zero); err == nil {
		t.Error("zero baseline accepted — must demand regeneration")
	}

	switch bc.name {
	case "apply", "dram":
		if ops := metric(t, res, "ops").Value; ops != benchRounds*3 {
			t.Errorf("ops = %v, want %d", ops, benchRounds*3)
		}
		if hit := metric(t, res, "cache_hit_rate").Value; hit < 0.9 {
			t.Errorf("cache hit rate %.3f — repeated-op workload should be nearly all hits", hit)
		}
		if bc.name == "dram" {
			if s, pj := metric(t, res, "sim_seconds_per_op").Value, metric(t, res, "pj_per_bit").Value; s <= 0 || pj <= 0 {
				t.Errorf("non-positive deterministic figures: %v s/op, %v pJ/bit", s, pj)
			}
		}
	case "batch":
		if k := metric(t, res, "k").Value; k != float64(DefaultBatchKs[len(DefaultBatchKs)-1]) {
			t.Errorf("k = %v", k)
		}
		seq, batched := metric(t, res, "sequential_ops_per_sec").Value, metric(t, res, "batched_ops_per_sec").Value
		if batched <= seq {
			t.Errorf("batched %.0f ops/s not above sequential %.0f ops/s", batched, seq)
		}
		if sp := metric(t, res, "speedup").Value; sp <= 1 {
			t.Errorf("speedup = %.3f, want > 1", sp)
		}
	}
}

// TestApplyBenchGate pins the apply bench and its gate.
func TestApplyBenchGate(t *testing.T) {
	checkBenchGate(t, benchCaseNamed(t, "apply"))
}

// TestDRAMBenchAndGate pins the DRAM bench and its gate.
func TestDRAMBenchAndGate(t *testing.T) {
	checkBenchGate(t, benchCaseNamed(t, "dram"))
}

// TestBatchBenchJSON pins the batch bench, its JSON baseline and its gate.
func TestBatchBenchJSON(t *testing.T) {
	checkBenchGate(t, benchCaseNamed(t, "batch"))
}

var jsonKey = regexp.MustCompile(`"(\w+)":`)

// TestBenchCommittedBaselines gates a fresh run of each bench against the
// repository's committed BENCH_<name>.json, and checks that a fresh
// baseline file would carry the same keys in the same order.
func TestBenchCommittedBaselines(t *testing.T) {
	for _, bc := range benchCases {
		t.Run(bc.name, func(t *testing.T) {
			data, err := os.ReadFile("../../BENCH_" + bc.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var baseline map[string]float64
			if err := json.Unmarshal(data, &baseline); err != nil {
				t.Fatal(err)
			}
			res, err := bc.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := GateBench(res, baseline); err != nil {
				t.Error(err)
			}
			_, fresh := roundTrip(t, res)
			keys := func(b []byte) (out []string) {
				for _, m := range jsonKey.FindAllSubmatch(b, -1) {
					out = append(out, string(m[1]))
				}
				return out
			}
			if got, want := keys(fresh), keys(data); !slices.Equal(got, want) {
				t.Errorf("fresh keys %v, committed %v", got, want)
			}
		})
	}
}

func TestBatchBenchPlanMismatch(t *testing.T) {
	rows := []BatchRow{
		{K: 1, Sequential: 10, Makespan: 10, Speedup: 1, PlanMakespan: 10, PlanMatch: true},
		{K: 4, Sequential: 40, Makespan: 12, Speedup: 40.0 / 12, PlanMakespan: 11, PlanMatch: false},
		{K: 8, Sequential: 80, Makespan: 20, Speedup: 4, PlanMakespan: 20, PlanMatch: true},
	}
	if _, err := BatchBench(rows); err == nil || !strings.Contains(err.Error(), "k=4") {
		t.Errorf("plan mismatch at k=4: error %v", err)
	}
	rows[1].PlanMakespan, rows[1].PlanMatch = 12, true
	res, err := BatchBench(rows)
	if err != nil {
		t.Fatal(err)
	}
	if k := metric(t, res, "k").Value; k != 8 {
		t.Errorf("bench reports k=%v, want the last row's 8", k)
	}
	if _, err := BatchBench(nil); err == nil {
		t.Error("empty sweep accepted")
	}
}
