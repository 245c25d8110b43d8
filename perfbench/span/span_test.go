package span

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Module: "a", Start: 0, End: 10 * ms},
		// Two overlapping children cover [2,6) once: 4 ms.
		{ID: 2, Parent: 1, Module: "b", Start: 2 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Module: "b", Start: 4 * ms, End: 6 * ms},
		// A child sticking out of its parent is clipped: covers [8,10).
		{ID: 4, Parent: 1, Module: "c", Start: 8 * ms, End: 12 * ms},
	}
	self := SelfTime(spans)
	if got, want := self["a"], 4*ms; got != want {
		t.Errorf("self(a) = %v, want %v", got, want)
	}
	if got, want := self["b"], 5*ms; got != want {
		t.Errorf("self(b) = %v, want %v", got, want)
	}
	if got, want := self["c"], 4*ms; got != want {
		t.Errorf("self(c) = %v, want %v", got, want)
	}
}

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		id := r.Begin("m", "m.f", 0, 1)
		r.End(id)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %v per span", allocs)
	}
	if r.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := New()
	outer := r.Begin("pinatubo", "pinatubo.apply", 0, 7)
	inner := r.Begin("sense", "sense.compute", outer, 7)
	r.End(inner)
	r.End(outer)
	r.Begin("open", "open.never", 0, 0) // unclosed: dropped
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Spans(), map[int]string{0: "workload"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	if m := doc.TraceEvents[0]; m.Ph != "M" || m.Args["name"] != "workload" {
		t.Fatalf("bad track-name event %+v", m)
	}
	ev := doc.TraceEvents[2]
	if ev.Name != "sense.compute" || ev.Ph != "X" || ev.Args["parent"].(float64) != 1 || ev.Args["req"].(float64) != 7 {
		t.Fatalf("bad event %+v", ev)
	}
}
