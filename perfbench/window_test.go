package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestSplitAndRates(t *testing.T) {
	s := time.Second
	snaps := []window{{0, 0}, {s, 3 * time.Millisecond}, {2 * s, 7 * time.Millisecond}}
	lat := latencies{10, 20, 30, 40, 50, 60}
	// Completions at or before a snapshot belong to the window it ends;
	// one after the last snapshot counts in the last window.
	done := []time.Duration{s / 2, s, s + 1, 2 * s, 3 * s, 0}
	w := split(snaps, lat, done)
	if len(w.lat) != 2 || len(w.lat[0]) != 3 || len(w.lat[1]) != 3 || w.ops[0] != 3 || w.ops[1] != 3 {
		t.Fatalf("windows = %v, ops %v; want 3 and 3", w.lat, w.ops)
	}
	w.ops[1] = 4 // a reservoir keeps fewer samples than the window counted
	if w.minOps() != 3 {
		t.Errorf("minOps = %d", w.minOps())
	}
	perSec, cpu := w.rates()
	if perSec[0] != 3 || perSec[1] != 4 {
		t.Errorf("rates = %v", perSec)
	}
	if cpu[0] != float64(time.Millisecond) || cpu[1] != float64(time.Millisecond) {
		t.Errorf("cpu per op = %v", cpu)
	}
	if len(w.all()) != 6 {
		t.Errorf("all() has %d samples", len(w.all()))
	}
}

func TestWindowedQuantile(t *testing.T) {
	mk := func(base time.Duration, n int) latencies {
		l := make(latencies, n)
		for i := range l {
			l[i] = base + time.Duration(i)
		}
		return l
	}
	// Every window supports p50: the median of the window medians.
	w := windowed{lat: []latencies{mk(100, 20), mk(300, 20), mk(200, 20)}}
	if got := w.quantile(50, 1, "t"); got != 209 {
		t.Errorf("windowed p50 = %g, want 209", got)
	}
	// No window supports p90 with 20 samples: the whole phase decides.
	all := w.all()
	all.quantile(50, 1, "sort")
	if got := w.quantile(90, 1, "t"); got != float64(percentile(all, 90)) {
		t.Errorf("pooled p90 = %g, want %d", got, percentile(all, 90))
	}
}

func TestReservoirIsBoundedAndUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r reservoir
	for i := 0; i < 100000; i++ {
		r.add(time.Duration(i), 1000, rng)
	}
	if r.seen != 100000 || len(r.keep) != 1000 {
		t.Fatalf("seen %d, kept %d", r.seen, len(r.keep))
	}
	// A uniform sample of 0..99999 has its median near 50000.
	if p50 := r.keep.quantile(50, 1, "t"); p50 < 45000 || p50 > 55000 {
		t.Errorf("sample median %g, want about 50000", p50)
	}
	var small reservoir
	for i := 0; i < 10; i++ {
		small.add(time.Duration(i), 1000, rng)
	}
	if len(small.keep) != 10 {
		t.Errorf("an unfilled reservoir keeps everything; kept %d", len(small.keep))
	}
}
