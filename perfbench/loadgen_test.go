package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 5000, time.Second)
	b := poissonSchedule(7, 5000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 5000, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// About rate*dur arrivals (sd = sqrt(5000) ≈ 71), increasing, in range.
	if n := len(a); n < 4600 || n > 5400 {
		t.Errorf("%d arrivals in 1s at 5000/s", n)
	}
	for i := range a {
		if a[i] < 0 || a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v out of order or range", i, a[i])
		}
	}
	// A shorter run is a prefix of the longer one.
	short := poissonSchedule(7, 5000, 500*time.Millisecond)
	if !reflect.DeepEqual(short, a[:len(short)]) {
		t.Error("schedule of a shorter run is not a prefix")
	}
}

func TestGeneratorLateness(t *testing.T) {
	g := newGenerator([]time.Duration{10, 20, 30, 100})
	if wait, more := g.wait(0); !more || wait != 10 {
		t.Fatalf("first wait = %v, %v", wait, more)
	}
	// Woken late at 35: the three overdue arrivals go out together.
	if lo, hi := g.overdue(35); lo != 0 || hi != 3 {
		t.Fatalf("overdue(35) = [%d,%d)", lo, hi)
	}
	if wait, _ := g.wait(40); wait != 60 {
		t.Errorf("wait from 40 = %v, want 60", wait)
	}
	if lo, hi := g.overdue(99); lo != hi {
		t.Errorf("nothing is due at 99, got [%d,%d)", lo, hi)
	}
	if lo, hi := g.overdue(100); lo != 3 || hi != 4 {
		t.Errorf("overdue(100) = [%d,%d)", lo, hi)
	}
	if _, more := g.wait(100); more {
		t.Error("exhausted schedule still waits")
	}
	want := latencies{25, 15, 5, 0}
	if got := g.lateness(); !reflect.DeepEqual(got, want) {
		t.Errorf("lateness = %v, want %v", got, want)
	}
	// Latency counts from the due time, so it includes the lateness.
	if got := g.latency(0, 60); got != 50 {
		t.Errorf("latency = %v, want 50", got)
	}
	// A wake before the next due time never yields a negative wait.
	g2 := newGenerator([]time.Duration{10})
	if wait, _ := g2.wait(50); wait != 0 {
		t.Errorf("overdue wait = %v, want 0", wait)
	}
}
