package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// poissonSchedule returns the due times, as offsets from the start of the
// run, of a Poisson arrival process at rate per second over dur. The same
// seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// generator walks an open-loop schedule. On each wake the caller issues
// every arrival that is overdue, then sleeps until the next one is due; an
// arrival's latency is measured from its due time, so a stall charges the
// wait it imposes on later arrivals, and the generator's own lateness is
// recorded separately.
type generator struct {
	due    []time.Duration
	next   int
	issued []time.Duration // issue offset per arrival
}

func newGenerator(due []time.Duration) *generator {
	return &generator{due: due, issued: make([]time.Duration, len(due))}
}

// overdue returns the index range [lo, hi) of the arrivals due at or before
// now that have not been issued, and marks them issued at now.
func (g *generator) overdue(now time.Duration) (lo, hi int) {
	lo = g.next
	for g.next < len(g.due) && g.due[g.next] <= now {
		g.issued[g.next] = now
		g.next++
	}
	return lo, g.next
}

// wait returns how long to sleep from now until the next arrival is due,
// and false once the schedule is exhausted.
func (g *generator) wait(now time.Duration) (time.Duration, bool) {
	if g.next >= len(g.due) {
		return 0, false
	}
	return max(g.due[g.next]-now, 0), true
}

// lateness returns, per issued arrival, how long after its due time it was
// issued.
func (g *generator) lateness() latencies {
	out := make(latencies, g.next)
	for i := range out {
		out[i] = g.issued[i] - g.due[i]
	}
	return out
}

// latency returns an arrival's latency measured from its due time, given
// when it completed.
func (g *generator) latency(i int, done time.Duration) time.Duration {
	return done - g.due[i]
}

// lockGenerator pins the calling goroutine to its OS thread for an
// open-loop generator and sets the thread's timer slack to 1 ns, so
// nanosleep wakes on time instead of up to 50 µs late. The returned
// function restores the default slack and unpins the goroutine.
func lockGenerator() (unlock func()) {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) //nolint:errcheck // best effort: the default slack only blunts precision
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0) //nolint:errcheck // 0 restores the thread's default
		runtime.UnlockOSThread()
	}
}

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// preciseSleep blocks the calling OS thread for d with nanosleep(2). The
// Go timer behind time.Sleep rounds waits below a millisecond up to about
// a millisecond when the process is otherwise idle, which would charge the
// generator's own lateness to every open-loop call; the generator locks
// its goroutine to a thread and sleeps in the kernel instead.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		err := syscall.Nanosleep(&ts, &rem)
		if err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
