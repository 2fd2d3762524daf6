package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory; write dumps them when
// the run ends. All methods are safe for concurrent use, and a nil tracer
// (or a nil span) records nothing, so untraced code paths pass nil.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Spans of one request share Req; a root
// span's Parent is 0. Times are µs since the tracer started.
type spanRec struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// span is an open span.
type span struct {
	t       *tracer
	id, req int64
	parent  int64
	name    string
	start   time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// root opens the first span of a new request.
func (t *tracer) root(name string) *span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &span{t: t, id: id, req: id, name: name, start: time.Now()}
}

// child opens a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{t: s.t, id: s.t.ids.Add(1), req: s.req, parent: s.id, name: name, start: time.Now()}
}

// end closes the span and records it.
func (s *span) end() {
	if s == nil {
		return
	}
	s.record(s.start, time.Now())
}

// add records a finished child of s with explicit times.
func (s *span) add(name string, start, end time.Time) {
	if s == nil {
		return
	}
	c := &span{t: s.t, id: s.t.ids.Add(1), req: s.req, parent: s.id, name: name}
	c.record(start, end)
}

func (s *span) record(start, end time.Time) {
	r := spanRec{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name, StartUS: s.t.us(start), EndUS: s.t.us(end)}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, r)
	s.t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTime aggregates one span name: total self time and call count.
type layerTime struct {
	selfUS float64
	durUS  []float64
	n      int
}

// meanSelfMS returns the mean self time per span in ms.
func (l *layerTime) meanSelfMS() float64 {
	if l == nil || l.n == 0 {
		return 0
	}
	return l.selfUS / float64(l.n) / 1000
}

// selfTimes computes every span's self time — its duration minus the part
// of its interval covered by the union of its children — and aggregates it
// by span name. It also returns, per root span, the covered (non-self)
// time, for coverage figures.
func (t *tracer) selfTimes() (map[string]*layerTime, map[int64]float64) {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	kids := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	covered := map[int64]float64{}
	for _, s := range spans {
		dur := s.EndUS - s.StartUS
		cov := unionWithin(kids[s.ID], s.StartUS, s.EndUS)
		l := out[s.Name]
		if l == nil {
			l = &layerTime{}
			out[s.Name] = l
		}
		l.selfUS += dur - cov
		l.durUS = append(l.durUS, dur)
		l.n++
		if s.Parent == 0 {
			covered[s.ID] = cov
		}
	}
	return out, covered
}

// rootCoverage returns the share of the root spans' time (roots named
// name) that their children cover: the part of each op the traced layers
// account for.
func (t *tracer) rootCoverage(name string) float64 {
	_, covered := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var dur, cov float64
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == name {
			dur += s.EndUS - s.StartUS
			cov += covered[s.ID]
		}
	}
	if dur == 0 {
		return 0
	}
	return cov / dur
}

// unionWithin returns the length of the union of the spans' intervals
// clipped to [lo, hi].
func unionWithin(spans []spanRec, lo, hi float64) float64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartUS, lo), min(s.EndUS, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}
