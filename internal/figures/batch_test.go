package figures

import (
	"bytes"
	"strings"
	"testing"
)

func TestBatchSweep(t *testing.T) {
	rows, err := BatchSweep([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if !r.PlanMatch {
			t.Errorf("k=%d: batch makespan %v != plan %v", r.K, r.Makespan, r.PlanMakespan)
		}
		if r.Makespan <= 0 || r.Makespan > r.Sequential {
			t.Errorf("k=%d: makespan %v outside (0, %v]", r.K, r.Makespan, r.Sequential)
		}
		if r.Shards != r.K {
			t.Errorf("k=%d: shards = %d", r.K, r.Shards)
		}
	}
	if rows[1].Speedup <= rows[0].Speedup {
		t.Errorf("speedup not increasing: k=1 %.3f, k=4 %.3f", rows[0].Speedup, rows[1].Speedup)
	}

	text := FormatBatch(rows)
	if !strings.Contains(text, "plan match") || strings.Contains(text, "MISMATCH") {
		t.Errorf("unexpected format output:\n%s", text)
	}
	var buf bytes.Buffer
	if err := WriteBatchCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("CSV lines = %d, want 3", lines)
	}
}
