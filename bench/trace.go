package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Spans of one operation (a Table I row, a
// curve, a request) share Op; Parent links a span to the span that caused
// it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"` // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span's call belongs to: the prefix of its name.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int, op, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: -1})
	return len(t.spans)
}

// finish closes span id and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	return time.Duration(s.End - s.Start)
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(parent int, op, name string, f func()) time.Duration {
	id := t.begin(parent, op, name)
	f()
	return t.finish(id)
}

// snapshot copies the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its direct children cover.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := map[int]int64{}
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - coveredLength(children[s.ID], s.Start, s.End)
	}
	return self
}

// explained reports, for the subtree under root, the root's duration and
// the share of it that the self times of the root's descendants cover —
// the part of the end-to-end time the traced layer calls account for.
func explained(spans []span, root int) (dur time.Duration, share float64) {
	self := selfTimes(spans)
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	r, ok := byID[root]
	if !ok || r.End <= r.Start {
		return 0, 0
	}
	inSubtree := func(id int) bool {
		for id != 0 {
			s := byID[id]
			if s.Parent == root {
				return true
			}
			id = s.Parent
		}
		return false
	}
	var covered int64
	for _, s := range spans {
		if inSubtree(s.ID) {
			covered += self[s.ID]
		}
	}
	d := r.End - r.Start
	return time.Duration(d), float64(covered) / float64(d)
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
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
