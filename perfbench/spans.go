package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one operation share Op; Parent is the
// ID of the span that caused this one (-1 for an operation's root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the traced pass. A nil *recorder is
// the untraced pass: every method is a no-op, so the timed code paths are
// the same in both passes.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a completed span and returns its ID.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// open reserves a span whose end is filled in by close; children can name
// it as their parent while it is still running.
func (r *recorder) open(name string, parent, op int, start time.Time) int {
	return r.add(name, parent, op, start, start)
}

func (r *recorder) close(id int, end time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = end.Sub(r.t0)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durationsMS returns the durations of every span named name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimesMS returns, for every span named name, its duration minus the
// part of its interval covered by its children (overlapping children are
// counted once), in ms.
func selfTimesMS(spans []span, name string) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()-covered(s, children[s.ID])))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	first := true
	var start time.Duration
	for _, v := range ivs {
		switch {
		case first:
			start, end, first = v.a, v.b, false
		case v.a > end:
			total += end - start
			start, end = v.a, v.b
		case v.b > end:
			end = v.b
		}
	}
	if !first {
		total += end - start
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
