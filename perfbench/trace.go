package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call recorded by the benchmark around a call
// into the program. Spans of one operation share Op; Parent links a call
// to the span that caused it (0: none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the timed code paths
// are the same in both modes apart from these calls.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int32, op int64, fn func(id int32)) {
	id := t.begin(name, parent, op)
	fn(id)
	t.end(id)
}

// layerTime is the aggregate of one span name: how many spans, their
// total duration, and their self time (duration not covered by child
// spans).
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
	durs  []float64 // seconds, one per span
}

// layers folds the spans by name. A span's self time is its duration
// minus the union of its children's intervals.
func (t *tracer) layers() []*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	var order []*layerTime
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, lt)
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(children[s.ID])
		lt.durs = append(lt.durs, d.Seconds())
	}
	return order
}

// covered returns the length of the union of the spans' intervals.
func covered(cs []span) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		if c.End >= 0 {
			iv = append(iv, [2]int64{c.Start, c.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	lo, hi = -1, -1
	for _, v := range iv {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	total += hi - lo
	return time.Duration(total)
}

// median returns the median duration in seconds of the named spans, or 0
// when there are none.
func (t *tracer) median(name string) float64 {
	for _, lt := range t.layers() {
		if lt.Name == name {
			return median(lt.durs)
		}
	}
	return 0
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeLayers prints the per-span-name self-time table.
func (t *tracer) writeLayers(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "median_ms")
	for _, lt := range t.layers() {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.4f\n", lt.Name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6, median(lt.durs)*1e3)
	}
}
