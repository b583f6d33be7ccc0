package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// failedSample stands for a failed or refused operation in a latency
// sample: it sorts above every real latency, so a failure counts as missing
// every latency limit.
const failedSample = time.Duration(math.MaxInt64)

// minTail is the number of samples a reported percentile must have beyond
// it: a percentile with fewer is an anecdote, not a statistic.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The product is rounded to a billionth first, so 99.9% of 10,000 is rank
// 9,990 and not 9,991.
func rank(n int, p float64) int {
	x := math.Round(p/100*float64(n)*1e9) / 1e9
	return max(int(math.Ceil(x)), 1)
}

// supports reports whether n samples leave at least minTail samples beyond
// the p-th percentile.
func supports(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// tailPercentile returns the highest of the conventional percentiles (50,
// 90, 99, 99.9) that n samples support, or 0 when not even the median is.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// latencies is a sample of per-operation latencies.
type latencies []time.Duration

// quantile sorts the sample (once) and returns its p-th percentile in the
// given unit. It reports on stderr when the sample is too small to support
// p, so a short run cannot pass off a maximum as a p99.
func (l latencies) quantile(p float64, unit time.Duration, what string) float64 {
	if !sort.SliceIsSorted(l, func(i, j int) bool { return l[i] < l[j] }) {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	if !supports(len(l), p) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples do not support p%g (highest supported: p%g)\n",
			what, len(l), p, tailPercentile(len(l)))
	}
	v := percentile(l, p)
	if v == failedSample {
		return math.Inf(1)
	}
	return float64(v) / float64(unit)
}

// median returns the median of xs (the mean of the middle pair for even
// lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ioCounters are the kernel's per-process I/O counters from /proc/self/io.
type ioCounters struct {
	ReadSyscalls  int64 // syscr
	WriteSyscalls int64 // syscw
	ReadBytes     int64 // rchar
	WriteBytes    int64 // wchar
}

func (a ioCounters) sub(b ioCounters) ioCounters {
	return ioCounters{
		ReadSyscalls:  a.ReadSyscalls - b.ReadSyscalls,
		WriteSyscalls: a.WriteSyscalls - b.WriteSyscalls,
		ReadBytes:     a.ReadBytes - b.ReadBytes,
		WriteBytes:    a.WriteBytes - b.WriteBytes,
	}
}

// parseIO parses the "key: value" lines of /proc/<pid>/io.
func parseIO(r io.Reader) (ioCounters, error) {
	var c ioCounters
	seen := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return c, fmt.Errorf("parse io counter %q: %w", key, err)
		}
		switch key {
		case "syscr":
			c.ReadSyscalls, seen = n, seen+1
		case "syscw":
			c.WriteSyscalls, seen = n, seen+1
		case "rchar":
			c.ReadBytes, seen = n, seen+1
		case "wchar":
			c.WriteBytes, seen = n, seen+1
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	if seen != 4 {
		return c, fmt.Errorf("io counters: found %d of syscr, syscw, rchar, wchar", seen)
	}
	return c, nil
}

// readIO reads this process's I/O counters.
func readIO() (ioCounters, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return ioCounters{}, err
	}
	defer f.Close()
	return parseIO(f)
}

// parseVmHWM returns the peak resident set size, in KiB, from the VmHWM
// line of /proc/<pid>/status.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMiB returns this process's peak resident set size in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := parseVmHWM(f)
	return float64(kb) / 1024, err
}

// memSnap is the part of runtime.MemStats the per-layer metrics read.
type memSnap struct {
	Mallocs, TotalAlloc uint64
	NumGC               uint32
	PauseTotalNs        uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// sample is one measured interval: wall time, CPU time, kernel I/O
// counters and Go allocator counters, all as deltas.
type sample struct {
	wall, cpu time.Duration
	io        ioCounters
	mem       memSnap
}

type meter struct {
	start time.Time
	cpu   time.Duration
	io    ioCounters
	mem   memSnap
}

// startMeter snapshots the counters; stop returns the deltas since then.
func startMeter() (*meter, error) {
	io, err := readIO()
	if err != nil {
		return nil, err
	}
	m := &meter{mem: readMem(), io: io, cpu: cpuTime()}
	m.start = time.Now()
	return m, nil
}

func (m *meter) stop() (sample, error) {
	wall := time.Since(m.start)
	cpu := cpuTime()
	io, err := readIO()
	if err != nil {
		return sample{}, err
	}
	mem := readMem()
	return sample{
		wall: wall,
		cpu:  cpu - m.cpu,
		io:   io.sub(m.io),
		mem: memSnap{
			Mallocs:      mem.Mallocs - m.mem.Mallocs,
			TotalAlloc:   mem.TotalAlloc - m.mem.TotalAlloc,
			NumGC:        mem.NumGC - m.mem.NumGC,
			PauseTotalNs: mem.PauseTotalNs - m.mem.PauseTotalNs,
		},
	}, nil
}
