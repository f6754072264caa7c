package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer, or one replay
// pass. Spans of one tick (or one replay pass) share a Group.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Group  uint64 `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine; a nil *tracer records nothing and costs a nil check.
type tracer struct {
	t0    time.Time
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// open reserves a span ID for a parent whose children are recorded before
// it closes.
func (t *tracer) open() (id uint64, start int64) {
	if t == nil {
		return 0, 0
	}
	t.next++
	return t.next, t.now()
}

// close records a span opened with open and returns its duration in ns.
func (t *tracer) close(id uint64, name string, parent, group uint64, start int64) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: start, End: end})
	return end - start
}

// span records a leaf span that started at start and ends now, returning
// its duration in ns.
func (t *tracer) span(name string, parent, group uint64, start int64) int64 {
	if t == nil {
		return 0
	}
	t.next++
	return t.close(t.next, name, parent, group, start)
}

// selfTime is one span name's aggregate: count, total and self time (a
// span's duration minus the part its children cover).
type selfTime struct {
	name        string
	count       int
	total, self int64
}

// selfTimes aggregates self time per span name. Children of one parent run
// on one goroutine, one after another, so their durations do not overlap.
func (t *tracer) selfTimes() []selfTime {
	child := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
		}
		d := s.End - s.Start
		a.count++
		a.total += d
		a.self += d - child[s.ID]
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
