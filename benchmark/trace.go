package main

import (
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share its Op identifier; Parent names the span that caused this one ("" for
// the operation itself). All spans are recorded from the benchmark's side of
// the boundary; a span built from a Server-Timing entry knows its duration
// but not when inside the request it ran, and carries the request's start.
type span struct {
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// tracer keeps spans in memory for the length of a traced phase. A nil
// *tracer means tracing is off; callers test for nil rather than calling
// through, so the untraced path does no extra work at all.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span that started at start and lasted d.
func (t *tracer) add(op int, name, parent string, start time.Time, d time.Duration) {
	s := span{
		Op: op, Name: name, Parent: parent,
		StartMS: float64(start.Sub(t.t0)) / 1e6,
		DurMS:   float64(d) / 1e6,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// total returns the number of spans called name and the sum of their
// durations in milliseconds.
func (t *tracer) total(name string) (count int, ms float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].Name == name {
			count++
			ms += t.spans[i].DurMS
		}
	}
	return count, ms
}

// perOpTable is the spans regrouped by operation: one row per operation,
// one column per span name, each cell the summed duration (ms) of that
// operation's spans of that name.
type perOpTable struct {
	ops  []int
	cols map[string][]float64
}

func (t *tracer) perOp() *perOpTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &perOpTable{cols: make(map[string][]float64)}
	row := make(map[int]int)
	for _, s := range t.spans {
		if _, ok := row[s.Op]; !ok {
			row[s.Op] = len(p.ops)
			p.ops = append(p.ops, s.Op)
		}
	}
	for _, s := range t.spans {
		col := p.cols[s.Name]
		if col == nil {
			col = make([]float64, len(p.ops))
			p.cols[s.Name] = col
		}
		col[row[s.Op]] += s.DurMS
	}
	return p
}

// column returns the per-operation sums for name; an operation with no such
// span reads 0. The slice is the caller's to modify.
func (p *perOpTable) column(name string) []float64 {
	out := make([]float64, len(p.ops))
	copy(out, p.cols[name])
	return out
}

// parseServerTiming reads the stage durations (milliseconds) out of a
// Server-Timing header as tcqrd writes it: "queue;dur=2.301, solve;dur=0.912".
// Entries without a dur parameter are skipped.
func parseServerTiming(h string) map[string]float64 {
	out := make(map[string]float64)
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(entry, ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
				if ms, err := strconv.ParseFloat(v, 64); err == nil {
					out[name] += ms
				}
			}
		}
	}
	return out
}
