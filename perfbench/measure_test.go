package main

import (
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s latencies
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	// A percentile needs at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false},
		{100, 90, true}, {99, 90, false},
		{20, 50, true}, {19, 50, false},
		{10000, 99.9, true}, {9999, 99.9, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {150, 90}, {1000, 99}, {20000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	s := latencies{3, 1, failedSample, 2}
	if got := s.quantile(50, 1, "test"); got != 2 {
		t.Errorf("p50 = %g, want 2", got)
	}
	// With a failure in the top rank, the tail percentile is unbounded.
	if got := s.quantile(99, 1, "test"); got < 1e300 {
		t.Errorf("p99 = %g, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestParseIO(t *testing.T) {
	const text = `rchar: 3980
wchar: 120
syscr: 9
syscw: 4
read_bytes: 0
write_bytes: 0
cancelled_write_bytes: 0
`
	c, err := parseIO(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := ioCounters{ReadSyscalls: 9, WriteSyscalls: 4, ReadBytes: 3980, WriteBytes: 120}
	if c != want {
		t.Errorf("got %+v, want %+v", c, want)
	}
	if d := want.sub(ioCounters{ReadSyscalls: 2, WriteSyscalls: 1, ReadBytes: 980, WriteBytes: 20}); d != (ioCounters{7, 3, 3000, 100}) {
		t.Errorf("sub = %+v", d)
	}
	if _, err := parseIO(strings.NewReader("rchar: 1\nwchar: 2\n")); err == nil {
		t.Error("missing syscall counters accepted")
	}
	if _, err := parseIO(strings.NewReader("syscw: x\n")); err == nil {
		t.Error("malformed counter accepted")
	}
}

func TestReadIOLive(t *testing.T) {
	if _, err := readIO(); err != nil {
		t.Skipf("no /proc/self/io here: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	const text = "Name:\tperfbench\nVmPeak:\t  812345 kB\nVmHWM:\t   28464 kB\nVmRSS:\t   20000 kB\n"
	kb, err := parseVmHWM(strings.NewReader(text))
	if err != nil || kb != 28464 {
		t.Fatalf("VmHWM = %d, %v; want 28464", kb, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t1 kB\n")); err == nil {
		t.Error("missing VmHWM accepted")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Error("unexpected unit accepted")
	}
	if mb, err := peakRSSMiB(); err == nil && mb <= 0 {
		t.Errorf("live peak RSS = %g MiB", mb)
	}
}
