package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, when it started and
// ended (relative to the tracer's epoch), the span that caused it (-1
// for a root) and the id of the point, suite step or replay it served.
type span struct {
	Name   string
	ID     int
	Parent int
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is the untraced path. Spans are indexed in
// the order they begin; concurrent clients share the tracer under its
// mutex, which is held only to append or close one span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, the parent handle for the
// spans it causes.
func (t *tracer) begin(name string, id, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// busyAndSelf sums, per span name, the spans' durations (busy) and
// their self times: a span's duration minus the part of its interval
// that its children cover. Overlapping children are counted once.
func busyAndSelf(spans []span) (busy, self map[string]time.Duration) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	busy = map[string]time.Duration{}
	self = map[string]time.Duration{}
	for i, s := range spans {
		d := s.End - s.Start
		busy[s.Name] += d
		self[s.Name] += d - covered(s, spans, children[i])
	}
	return busy, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as a Chrome trace-event JSON array
// (complete events, microseconds), loadable in chrome://tracing or
// Perfetto.
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.ID,
			Args: map[string]int{"id": s.ID, "span": i, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}
