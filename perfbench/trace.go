package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Name is
// "<layer>.<call>"; Parent is the index of the enclosing span (-1 for a
// root) and Op the operation the span belongs to, so spans of one op share
// an identifier.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; write dumps them once the
// run ends. A nil *tracer records nothing, which is how untraced runs, and
// the untraced blocks of a traced run, call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under parent (-1 = root) and returns its index.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do records fn as one span.
func (t *tracer) do(name string, op int64, parent int, fn func()) {
	i := t.begin(name, op, parent)
	fn()
	t.end(i)
}

// spanCount is the number of spans recorded so far.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// totalMS is the summed duration of the closed spans named name, in
// milliseconds.
func (t *tracer) totalMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			sum += s.End - s.Start
		}
	}
	return float64(sum) / 1e6
}

// selfTimes returns, per layer (the span name up to its first dot), the
// summed self time in milliseconds: each span's duration minus the part of
// its interval that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[i] {
			if cs := t.spans[c]; cs.End >= 0 {
				iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-covered(iv)) / 1e6
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, hi int64 = 0, -1 << 62
	for _, x := range iv {
		lo := max(x[0], hi)
		if x[1] > lo {
			total += x[1] - lo
		}
		hi = max(hi, x[1])
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
