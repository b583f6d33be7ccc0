package main

import (
	"math/rand"
	"sort"
	"time"
)

// window is one slice of a measured phase: its end as an offset from the
// phase start, and the process CPU time used up to then.
type window struct {
	at  time.Duration
	cpu time.Duration
}

// windowSampler snapshots the process CPU time at a fixed interval, so a
// phase can be reported as the median of its windows: a burst of
// interference from outside the process then moves a few windows instead
// of the whole figure.
type windowSampler struct {
	start time.Time
	every time.Duration
	snaps []window
	stop  chan struct{}
	done  chan struct{}
}

func startWindows(every time.Duration) *windowSampler {
	w := &windowSampler{every: every, start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	w.snaps = append(w.snaps, window{cpu: cpuTime()})
	go w.run()
	return w
}

func (w *windowSampler) run() {
	defer close(w.done)
	t := time.NewTicker(w.every)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.snaps = append(w.snaps, window{at: time.Since(w.start), cpu: cpuTime()})
		}
	}
}

// finish stops the sampler and returns its snapshots, at least two, the
// first at the phase start. A trailing partial window shorter than half
// the interval is merged into the one before it.
func (w *windowSampler) finish() []window {
	close(w.stop)
	<-w.done
	last := window{at: time.Since(w.start), cpu: cpuTime()}
	if len(w.snaps) > 1 && last.at-w.snaps[len(w.snaps)-1].at < w.every/2 {
		w.snaps = w.snaps[:len(w.snaps)-1]
	}
	return append(w.snaps, last)
}

// windowed is a phase's operations grouped into the sampler's windows by
// completion time: per window its wall and CPU time, the operations
// completed, and their latencies (all of them, or a uniform sample).
type windowed struct {
	wall, cpu []time.Duration
	ops       []int64
	lat       []latencies
}

func newWindowed(snaps []window) windowed {
	n := len(snaps) - 1
	w := windowed{wall: make([]time.Duration, n), cpu: make([]time.Duration, n), ops: make([]int64, n), lat: make([]latencies, n)}
	for k := 0; k < n; k++ {
		w.wall[k] = snaps[k+1].at - snaps[k].at
		w.cpu[k] = snaps[k+1].cpu - snaps[k].cpu
	}
	return w
}

// split assigns each operation, by the offset at which it completed, to
// its window; an operation completing after the last snapshot counts in
// the last window.
func split(snaps []window, lat latencies, doneAt []time.Duration) windowed {
	w := newWindowed(snaps)
	n := len(w.ops)
	for i, d := range doneAt {
		k := sort.Search(n, func(k int) bool { return d <= snaps[k+1].at })
		k = min(k, n-1)
		w.ops[k]++
		w.lat[k] = append(w.lat[k], lat[i])
	}
	return w
}

// minWindowOps is the fewest operations a window may count for its rate
// to be used: below it, counting whole operations quantises the rate by
// more than 1%.
const minWindowOps = 100

// minOps returns the smallest operation count of any window.
func (w windowed) minOps() int64 {
	least := int64(-1)
	for _, n := range w.ops {
		if least < 0 || n < least {
			least = n
		}
	}
	return least
}

// rates returns each window's completed operations per second and CPU
// time per operation in nanoseconds, skipping empty windows.
func (w windowed) rates() (perSec, cpuPerOp []float64) {
	for k, n := range w.ops {
		if n == 0 {
			continue
		}
		perSec = append(perSec, float64(n)/w.wall[k].Seconds())
		cpuPerOp = append(cpuPerOp, float64(w.cpu[k])/float64(n))
	}
	return perSec, cpuPerOp
}

// all returns every window's latencies as one sample.
func (w windowed) all() latencies {
	var out latencies
	for _, l := range w.lat {
		out = append(out, l...)
	}
	return out
}

// quantile returns the median over the windows of their p-th percentiles
// when every window's sample supports p, and otherwise the p-th
// percentile of the whole phase.
func (w windowed) quantile(p float64, unit time.Duration, what string) float64 {
	var per []float64
	for _, l := range w.lat {
		if !supports(len(l), p) {
			return w.all().quantile(p, unit, what)
		}
		per = append(per, l.quantile(p, unit, what))
	}
	if len(per) == 0 {
		return w.all().quantile(p, unit, what)
	}
	return median(per)
}

// reservoir keeps a uniform random sample of at most size latencies out of
// all those added (Algorithm R), so a fast closed loop's memory does not
// grow with its call rate.
type reservoir struct {
	seen int64
	keep latencies
}

func (r *reservoir) add(d time.Duration, size int, rng *rand.Rand) {
	r.seen++
	if len(r.keep) < size {
		r.keep = append(r.keep, d)
		return
	}
	if j := rng.Int63n(r.seen); j < int64(size) {
		r.keep[j] = d
	}
}
