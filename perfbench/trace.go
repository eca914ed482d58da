package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// The tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends. Every span feeds exact
// per-name aggregates (count, total and self time); the first
// keepPerName spans of each name on each track are also kept as records
// for the trace file, so a million-exchange flood writes a bounded file.
const keepPerName = 2000

// spanRec is one kept span.
type spanRec struct {
	name       int
	start, end time.Duration // since the tracer's base
	id, parent int64         // parent 0: a root span
	op         int64
	track      int
}

// spanAgg aggregates every span of one name.
type spanAgg struct {
	count       int64
	total, self time.Duration
}

type openSpan struct {
	name  int
	start time.Duration
	child time.Duration
	id    int64
}

// tracer owns the name table and every track.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	names []string
	ids   map[string]int
	tks   []*track
}

func newTracer() *tracer {
	return &tracer{base: now(), ids: map[string]int{}}
}

// name interns a span name.
func (tr *tracer) name(s string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if id, ok := tr.ids[s]; ok {
		return id
	}
	tr.ids[s] = len(tr.names)
	tr.names = append(tr.names, s)
	return len(tr.names) - 1
}

// track starts a span stack for one goroutine at a time, stamping every
// span it records with op.
func (tr *tracer) track(op int64) *track {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := &track{tr: tr, idx: len(tr.tks), op: op}
	tr.tks = append(tr.tks, t)
	return t
}

// track is a span stack; it is not safe for concurrent use. A nil track
// records nothing, so untraced runs pass nil through the same code.
type track struct {
	tr    *tracer
	idx   int
	op    int64
	seq   int64
	stack []openSpan
	aggs  []spanAgg
	kept  []int
	recs  []spanRec
}

func (t *track) begin(name int) {
	if t == nil {
		return
	}
	t.seq++
	t.stack = append(t.stack, openSpan{
		name:  name,
		start: now().Sub(t.tr.base),
		id:    int64(t.idx)<<32 | t.seq,
	})
}

func (t *track) end() {
	if t == nil {
		return
	}
	end := now().Sub(t.tr.base)
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	d := end - s.start
	var parent int64
	if top > 0 {
		t.stack[top-1].child += d
		parent = t.stack[top-1].id
	}
	for len(t.aggs) <= s.name {
		t.aggs = append(t.aggs, spanAgg{})
		t.kept = append(t.kept, 0)
	}
	a := &t.aggs[s.name]
	a.count++
	a.total += d
	a.self += d - s.child
	if t.kept[s.name] < keepPerName {
		t.kept[s.name]++
		t.recs = append(t.recs, spanRec{
			name: s.name, start: s.start, end: end,
			id: s.id, parent: parent, op: t.op, track: t.idx,
		})
	}
}

// agg merges one name's aggregates over every track; call after all
// tracks have finished.
func (tr *tracer) agg(name string) spanAgg {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out spanAgg
	id, ok := tr.ids[name]
	if !ok {
		return out
	}
	for _, t := range tr.tks {
		if id < len(t.aggs) {
			out.count += t.aggs[id].count
			out.total += t.aggs[id].total
			out.self += t.aggs[id].self
		}
	}
	return out
}

// mean is the mean span duration in the given unit.
func (a spanAgg) mean(unit time.Duration) float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count) / float64(unit)
}

// writeChrome writes the kept spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps), which trace viewers open directly.
func (tr *tracer) writeChrome(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		return 0, err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, t := range tr.tks {
		for _, r := range t.recs {
			ev := event{
				Name: tr.names[r.name], Ph: "X", TS: us(r.start), Dur: us(r.end - r.start),
				PID: 1, TID: r.track,
				Args: map[string]any{"op": r.op, "id": r.id, "parent": r.parent},
			}
			buf, err := json.Marshal(ev)
			if err != nil {
				return n, err
			}
			if n > 0 {
				if err := w.WriteByte(','); err != nil {
					return n, err
				}
			}
			if _, err := w.Write(append(buf, '\n')); err != nil {
				return n, err
			}
			n++
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return n, err
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}
