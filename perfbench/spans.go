package main

import (
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into the program:
// its name, start and end relative to the run's start, the span that
// caused it (0 for none) and the job it belongs to, if any.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spans keeps a run's spans in memory. With tracing off every method is a
// no-op, so untraced runs pay one branch per call site.
type spans struct {
	on   bool
	t0   time.Time
	mu   sync.Mutex
	next int64
	list []span
}

func newSpans(on bool) *spans { return &spans{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (s *spans) begin(name, job string, parent int64) int64 {
	if !s.on {
		return 0
	}
	now := ms(time.Since(s.t0))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.list = append(s.list, span{ID: s.next, Parent: parent, Name: name, Job: job, Start: now, End: -1})
	return s.next
}

// end closes the span opened by begin.
func (s *spans) end(id int64) {
	if !s.on || id == 0 {
		return
	}
	now := ms(time.Since(s.t0))
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

// do runs fn inside a span.
func (s *spans) do(name, job string, parent int64, fn func()) {
	id := s.begin(name, job, parent)
	fn()
	s.end(id)
}

// selfTime is one span name's total and self time: a span's self time is
// its duration minus the part of it that its child spans cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (s *spans) snapshot() []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}

// selfTimes folds closed spans into per-name totals, largest self time
// first.
func selfTimes(list []span) []selfTime {
	children := map[int64][]span{}
	for _, sp := range list {
		if sp.Parent != 0 && sp.End >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	byName := map[string]*selfTime{}
	for _, sp := range list {
		if sp.End < 0 {
			continue
		}
		st := byName[sp.Name]
		if st == nil {
			st = &selfTime{Name: sp.Name}
			byName[sp.Name] = st
		}
		d := sp.End - sp.Start
		st.Count++
		st.TotalMS += d
		st.SelfMS += d - covered(sp, children[sp.ID])
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
