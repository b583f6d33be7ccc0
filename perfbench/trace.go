package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Start and End are nanoseconds since the
// tracer's epoch. Parent is 0 for a root span; spans of one logical call
// share Call.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Call   uint64 `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the tracer clock; 0 for a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(w time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(w.Sub(t.epoch))
}

// newID reserves a span ID, so a parent can be named before it ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved or fresh ID and returns it.
func (t *tracer) add(id, parent, call uint64, name string, start, end int64) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Call: call, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// named returns the durations, in nanoseconds, of every span called name.
func (t *tracer) named(name string) []float64 {
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

// selfTimes returns each span's own time: its duration minus the part of
// its interval covered by its direct children. Overlapping children are
// counted once, and a child's time outside its parent's interval is not
// subtracted.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the kids' intervals, clipped
// to parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfOf returns the own times, in nanoseconds, of every span called name.
func (t *tracer) selfOf(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as gzipped JSON lines, after one header line
// holding the environment. A traced echo run records over a million spans,
// so the file is compressed.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	t.mu.Lock()
	for _, s := range t.spans {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// perParent returns, per parent span, the summed durations in nanoseconds
// of its children called name.
func (t *tracer) perParent(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[uint64]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Parent] += float64(s.dur())
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}
