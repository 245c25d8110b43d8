// Package span records timed spans around the calls the benchmark makes
// into each module, keeps them in memory, and writes them out at the end
// as Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).
//
// A nil *Recorder is the untraced mode: every method is a no-op that
// allocates nothing, so the end-to-end runs pay only a nil check.
package span

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call. Module is the layer the call went into
// ("sense", "pinatubo", "serve", ...); Name is module-qualified
// ("pinatubo.apply"). Parent is the enclosing span's ID (0 at the root);
// Req ties together the spans of one request or op.
type Span struct {
	ID     int
	Parent int
	Name   string
	Module string
	Req    int64
	Track  int
	Start  time.Duration // since the recorder's origin
	End    time.Duration
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder collects spans. It is safe for concurrent use.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// New returns a recorder whose timestamps count from now.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func New() *Recorder { return &Recorder{origin: time.Now()} }

// Origin is the instant span timestamps count from.
func (r *Recorder) Origin() time.Time { return r.origin }

// Begin opens a span and returns its ID (0 on a nil recorder).
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func (r *Recorder) Begin(module, name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Module: module,
		Req: req, Start: now, End: -1})
	return id
}

// End closes span id.
//
//pinlint:ignore detrand the benchmark measures host time on purpose; no simulated result depends on it
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records an already-measured span (for intervals timed elsewhere,
// such as a request whose start is its scheduled due time) and returns
// its ID.
func (r *Recorder) Add(module, name string, parent int, req int64, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Module: module,
		Req: req, Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// SetTrack assigns span id to a display track (one per goroutine or
// connection in the trace viewer).
func (r *Recorder) SetTrack(id, track int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Track = track
	r.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Durations returns the durations of every closed span with this name.
func Durations(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// SelfTime returns, per module, the summed self time of its spans: each
// span's duration minus the part of that interval its children cover
// (children that overlap one another are counted once).
func SelfTime(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Module] += s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes spans as a Chrome trace-event JSON object: one
// complete ("X") event per span, timestamps in microseconds, the span's
// ID, parent and request ID in args, and a thread-name metadata ("M")
// event per named track.
func WriteChrome(w io.Writer, spans []Span, tracks map[int]string) error {
	events := make([]event, 0, len(spans)+len(tracks))
	for tid, name := range tracks {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Tid < events[j].Tid })
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Module, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.Dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
