package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the engine.
// Spans of one request share Req; Parent is the ID of the span whose call
// caused this one (0 for a request's root).
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, so the untraced run pays one nil check per
// call site.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request returns a fresh request ID (0 from a nil tracer).
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// start opens a span named name under parent (nil for a request's root).
func (t *tracer) start(req int64, parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{Req: req, ID: t.ids.Add(1), Name: name, Start: int64(time.Since(t.t0))}
	if parent != nil {
		s.Parent = parent.ID
	}
	return s
}

// finish closes s and keeps it.
func (t *tracer) finish(s *span) {
	if t == nil || s == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(req int64, parent *span, name string, fn func()) time.Duration {
	s := t.start(req, parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.finish(s)
	return d
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func (t *tracer) selfTimes() map[*span]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[*span]time.Duration, len(t.spans))
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerSelf summarizes self time per span name.
type layerSelf struct {
	name   string
	count  int
	total  time.Duration
	median time.Duration
}

func (t *tracer) bySelfTime() []layerSelf {
	groups := map[string][]time.Duration{}
	for s, d := range t.selfTimes() {
		groups[s.Name] = append(groups[s.Name], d)
	}
	var out []layerSelf
	for name, ds := range groups {
		l := layerSelf{name: name, count: len(ds)}
		fs := make([]float64, len(ds))
		for i, d := range ds {
			l.total += d
			fs[i] = float64(d)
		}
		l.median = time.Duration(median(fs))
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, len(t.spans))
	for i, s := range t.spans {
		out[i] = *s
	}
	return out
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// medianMS and medianUS give the median duration of the spans named name,
// or 0 when the run made no such call.
func (t *tracer) medianMS(name string) float64 { return zeroNaN(median(t.durations(name)) / 1e6) }
func (t *tracer) medianUS(name string) float64 { return zeroNaN(median(t.durations(name)) / 1e3) }

func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printSelfTimes writes the self-time table: every layer call the traced
// run made, largest total self time first.
func (t *tracer) printSelfTimes(w io.Writer) {
	rows := t.bySelfTime()
	var all time.Duration
	for _, r := range rows {
		all += r.total
	}
	fmt.Fprintf(w, "# %-28s %8s %12s %12s %7s\n", "self time by span", "calls", "total ms", "median us", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-28s %8d %12.2f %12.1f %6.1f%%\n", r.name, r.count, ms(r.total), us(r.median), 100*float64(r.total)/float64(max(all, 1)))
	}
}
