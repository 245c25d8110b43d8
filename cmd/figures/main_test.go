package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlagMixes pins the flag combinations run refuses
// before doing any work: -csv over every figure, and a bench file for a
// figure that is not a bench.
func TestRunRejectsBadFlagMixes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	for _, tc := range []struct {
		name                string
		fig                 string
		csv                 bool
		benchOut, benchGate string
	}{
		{"csv-all", "all", true, "", ""},
		{"benchout-table1", "table1", false, out, ""},
		{"benchgate-table1", "table1", false, "", "../../BENCH_apply.json"},
		{"benchout-all", "all", false, out, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			if err := run(&stdout, tc.fig, tc.csv, tc.benchOut, tc.benchGate); err == nil {
				t.Fatal("accepted")
			}
			if stdout.Len() != 0 {
				t.Errorf("printed before rejecting:\n%s", stdout.String())
			}
			if _, err := os.Stat(out); err == nil {
				t.Error("wrote the bench file")
			}
		})
	}
}

// TestRunCSVStillGates pins that -csv changes only how the figure prints:
// the bench is still written and gated, so a missing baseline fails.
func TestRunCSVStillGates(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run(&stdout, "batch", true, "", filepath.Join(dir, "missing.json")); err == nil {
		t.Error("-csv -benchgate with a missing baseline passed")
	}

	out := filepath.Join(dir, "BENCH_batch.json")
	stdout.Reset()
	if err := run(&stdout, "batch", true, out, "../../BENCH_batch.json"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "k,shards,") {
		t.Errorf("stdout is not the batch CSV:\n%s", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"makespan_s"`) {
		t.Errorf("bench file lacks makespan_s:\n%s", data)
	}
}
