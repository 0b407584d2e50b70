package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root span
	Op     int       `json:"op"`     // the operation the span belongs to (-1: none)
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	StartN int64     `json:"start_ns"` // relative to the tracer's epoch
	EndN   int64     `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. It is safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	t.addReserved(t.reserve(), name, parent, op, start, end)
}

// reserve allocates an id for a span whose end is not known yet, so
// its children can name it as their parent before it is added.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// addReserved records a span under an id obtained from reserve.
func (t *tracer) addReserved(id int, name string, parent, op int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
}

// selfTimes returns, per span name, the span count, total duration and
// self time: each span's duration minus the part of it its children
// cover.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End.Sub(s.Start)
		r.Count++
		r.Total += dur
		r.Self += dur - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

type selfRow struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// write stores the spans as JSON lines, preceded by one header line.
func (t *tracer) write(path string, header any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		s.StartN = s.Start.Sub(t.epoch).Nanoseconds()
		s.EndN = s.End.Sub(t.epoch).Nanoseconds()
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
