package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own call. Parent is the span that caused it (-1 for an op's root span) and
// spans of one op share Op.
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Duration // since the tracer started
	End    time.Duration
}

// tracer keeps the traced phase's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0) }

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover, on the reference container: slow is each op's host
// slowdown. Children of one span never overlap here: an op runs on one
// goroutine.
func (t *tracer) selfTimes(slow []float64) map[string]time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += onReference(s.End-s.Start-covered[i], slow[s.Op])
	}
	return out
}

// writeChrome writes the spans in the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev open directly, in wall time.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
