package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/jgf"
	"repro/parc"
)

// Workload shapes.
const (
	echoPayload  = 64      // bytes per echo call
	echoCallers  = 32      // closed-loop callers on echo
	poissonRate  = 5000    // arrivals per second on poisson
	cryptJob     = 3 << 20 // bytes per crypt job
	cryptChunks  = 24      // workers (and chunks) per crypt job
	cryptNodes   = 3       // nodes every workload boots
	payloadCount = 64      // distinct seeded echo payloads
	windowLen    = time.Second
)

// errMismatch marks a reply that differs from the expected output.
var errMismatch = errors.New("reply does not match the expected output")

// inputs are everything a run feeds the program, generated from the seed.
type inputs struct {
	payloads [][]byte        // echo payloads
	due      []time.Duration // poisson arrival schedule
	data     []byte          // crypt plaintext
	key      jgf.IdeaKey
	cipher   []byte // jgf.IdeaCrypt(data, key.Enc)
	seqTimes []float64
}

func (in *inputs) chunk(buf []byte, i int) []byte {
	n := len(buf) / cryptChunks
	return buf[i*n : (i+1)*n]
}

// makeInputs derives every input from seed. The sequential IdeaCrypt that
// yields the reference ciphertext is timed (jgf.seq_ms), and the reference
// is checked to decrypt back to the plaintext.
func makeInputs(seed int64, measure time.Duration) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{payloads: make([][]byte, payloadCount)}
	for i := range in.payloads {
		in.payloads[i] = seededBytes(rng, echoPayload)
	}
	in.due = poissonSchedule(rng.Int63(), poissonRate, measure)
	in.data = seededBytes(rng, cryptJob)
	in.key = jgf.NewIdeaKey(rng.Int63())
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c, err := jgf.IdeaCrypt(in.data, in.key.Enc)
		if err != nil {
			return nil, err
		}
		in.seqTimes = append(in.seqTimes, float64(time.Since(t0))/1e6)
		in.cipher = c
	}
	back, err := jgf.IdeaCrypt(in.cipher, in.key.Dec)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(back, in.data) {
		return nil, fmt.Errorf("sequential IDEA does not decrypt back to the input")
	}
	return in, nil
}

// outcome counts one measured phase's operations.
type outcome struct {
	ok        int64 // completed with the expected output
	failed    int64 // returned an error
	mismatch  int64 // completed with a wrong output
	issued    int64 // calls issued through parc (Crypt calls on crypt)
	sample    sample
	ops       windowed  // per-operation latency; failedSample for a failure
	calls     windowed  // crypt: per Crypt call, from scatter to reply; else ops
	late      latencies // poisson: generator lateness per arrival
	submitted latencies // poisson: how long each CallAsync took to return
}

func (o *outcome) attempted() int64 { return o.ok + o.failed + o.mismatch }

// windowSample is how many latencies a closed loop keeps per window, as a
// uniform sample shared out between its callers.
const windowSample = 8192

// closedLoop runs callers goroutines, each invoking op back to back until
// dur has elapsed, and records each op's latency. With a tracer, each op
// is also recorded as a root span called name.
func closedLoop(callers int, dur time.Duration, tr *tracer, name string, op func(i int) error) (*outcome, error) {
	m, err := startMeter()
	if err != nil {
		return nil, err
	}
	ws := startWindows(windowLen)
	end := ws.start.Add(dur)
	keep := max(windowSample/callers, 64)
	type caller struct {
		ok, failed, mismatch int64
		wins                 []reservoir // indexed by window
	}
	per := make([]caller, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &per[i]
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				err := op(i)
				t1 := time.Now()
				if tr != nil {
					tr.add(0, 0, tr.newID(), name, tr.at(t0), tr.at(t1))
				}
				d := t1.Sub(t0)
				switch {
				case err == nil:
					c.ok++
				case errors.Is(err, errMismatch):
					c.mismatch++
				default:
					c.failed++
					d = failedSample
				}
				k := int(t1.Sub(ws.start) / windowLen)
				for len(c.wins) <= k {
					c.wins = append(c.wins, reservoir{})
				}
				c.wins[k].add(d, keep, rng)
			}
		}(i)
	}
	wg.Wait()
	snaps := ws.finish()
	total := &outcome{ops: newWindowed(snaps)}
	if total.sample, err = m.stop(); err != nil {
		return nil, err
	}
	last := len(total.ops.ops) - 1
	for _, c := range per {
		total.ok += c.ok
		total.failed += c.failed
		total.mismatch += c.mismatch
		for k, r := range c.wins {
			k = min(k, last)
			total.ops.ops[k] += r.seen
			total.ops.lat[k] = append(total.ops.lat[k], r.keep...)
		}
	}
	total.calls = total.ops
	total.issued = total.attempted()
	return total, nil
}

// echoOp is one typed synchronous echo call on caller i's payload.
func echoOp(obj *parc.Object[Echo], in *inputs) func(i int) error {
	ctx := context.Background()
	return func(i int) error {
		p := in.payloads[i%len(in.payloads)]
		got, err := parc.Call[[]byte](ctx, obj, "Echo", p)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, p) {
			return errMismatch
		}
		return nil
	}
}

// runEcho is the echo workload: a closed loop of echoCallers callers.
func runEcho(obj *parc.Object[Echo], in *inputs, dur time.Duration, tr *tracer) (*outcome, error) {
	return closedLoop(echoCallers, dur, tr, "parc.Call", echoOp(obj, in))
}

// runPoisson is the poisson workload: the echo call in an open loop with
// Poisson arrivals, each issued through parc.CallAsync and completed by a
// parc.Then continuation, timed from its due time. Only the first dur of
// the schedule is used.
func runPoisson(obj *parc.Object[Echo], in *inputs, dur time.Duration, tr *tracer) (*outcome, error) {
	due := in.due
	for len(due) > 0 && due[len(due)-1] >= dur {
		due = due[:len(due)-1]
	}
	if len(due) == 0 {
		return nil, fmt.Errorf("poisson: empty schedule")
	}
	defer lockGenerator()()
	g := newGenerator(due)
	n := len(due)
	res := &outcome{submitted: make(latencies, n)}
	lat := make(latencies, n)
	okFlag := make([]int8, n) // 1 ok, 2 mismatch, 3 failed; written by the continuation
	var roots, calls []uint64 // span IDs of each arrival, when traced
	if tr != nil {
		roots, calls = make([]uint64, n), make([]uint64, n)
	}
	var wg sync.WaitGroup
	wg.Add(n)
	ctx := context.Background()
	m, err := startMeter()
	if err != nil {
		return nil, err
	}
	ws := startWindows(windowLen)
	start := ws.start
	epoch := tr.at(start)
	for {
		lo, hi := g.overdue(time.Since(start))
		for k := lo; k < hi; k++ {
			p := in.payloads[k%len(in.payloads)]
			t0 := time.Now()
			r := parc.CallAsync[[]byte](ctx, obj, "Echo", p)
			t1 := time.Now()
			res.submitted[k] = t1.Sub(t0)
			if tr != nil {
				roots[k], calls[k] = tr.newID(), tr.newID()
				tr.add(0, roots[k], calls[k], "loadgen.late", epoch+int64(due[k]), epoch+int64(g.issued[k]))
				tr.add(0, roots[k], calls[k], "parc.CallAsync", tr.at(t0), tr.at(t1))
			}
			parc.Then(r, func(got []byte) (struct{}, error) {
				lat[k] = g.latency(k, time.Since(start))
				okFlag[k] = 1
				if !bytes.Equal(got, p) {
					okFlag[k] = 2
				}
				wg.Done()
				return struct{}{}, nil
			}).Catch(func(error) (struct{}, error) {
				lat[k] = failedSample
				okFlag[k] = 3
				wg.Done()
				return struct{}{}, nil
			})
		}
		wait, more := g.wait(time.Since(start))
		if !more {
			break
		}
		preciseSleep(wait)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("poisson: calls still outstanding 30s after the last arrival")
	}
	snaps := ws.finish()
	if res.sample, err = m.stop(); err != nil {
		return nil, err
	}
	doneAt := make([]time.Duration, n)
	for k, f := range okFlag {
		doneAt[k] = due[k]
		if lat[k] != failedSample {
			doneAt[k] += lat[k]
			if tr != nil {
				tr.add(roots[k], 0, calls[k], "poisson.call", epoch+int64(due[k]), epoch+int64(doneAt[k]))
			}
		}
		switch f {
		case 1:
			res.ok++
		case 2:
			res.mismatch++
		default:
			res.failed++
		}
	}
	res.issued = int64(n)
	res.ops = split(snaps, lat, doneAt)
	res.calls = res.ops
	res.late = g.lateness()
	return res, nil
}

// groupJob runs one job the way jgf.RunCrypt does — parc.NewAt per
// member, parc.GroupOf, parc.Scatter, parc.Gather, then Destroy — with a
// span for each step under a root span called root, and returns the
// members' replies in order. callLat receives each call's latency from the
// start of the scatter to its reply.
func groupJob[T any](ns nodes, class, method string, argsFor func(i int) []any, root string, tr *tracer, callLat *latencies) ([][]byte, error) {
	ctx := context.Background()
	call, job := tr.newID(), tr.newID()
	t0 := tr.now()
	objs := make([]*parc.Object[T], 0, cryptChunks)
	destroy := func() error {
		var first error
		for _, o := range objs {
			s := tr.now()
			if err := o.Destroy(ctx); err != nil && first == nil {
				first = err
			}
			tr.add(0, job, call, "parc.Object.Destroy", s, tr.now())
		}
		return first
	}
	for i := 0; i < cryptChunks; i++ {
		s := tr.now()
		o, err := parc.NewAt[T](ns[0], class)
		if err != nil {
			destroy() //nolint:errcheck // the create error is the one reported
			return nil, err
		}
		tr.add(0, job, call, "parc.NewAt", s, tr.now())
		objs = append(objs, o)
	}
	s := tr.now()
	g := parc.GroupOf(objs...)
	tr.add(0, job, call, "parc.GroupOf", s, tr.now())
	s = tr.now()
	scatterStart := time.Now()
	rs := parc.Scatter[[]byte](ctx, g, method, argsFor)
	tr.add(0, job, call, "parc.Scatter", s, tr.now())
	replies := make([]*parc.Result[time.Duration], len(rs))
	for i, r := range rs {
		replies[i] = parc.Then(r, func([]byte) (time.Duration, error) { return time.Since(scatterStart), nil })
	}
	s = tr.now()
	parts, err := parc.Gather(ctx, rs)
	tr.add(0, job, call, "parc.Gather", s, tr.now())
	for _, r := range replies {
		d, rerr := r.Get(ctx)
		if rerr != nil {
			d = failedSample
		}
		*callLat = append(*callLat, d)
	}
	if derr := destroy(); err == nil {
		err = derr
	}
	tr.add(job, 0, call, root, t0, tr.now())
	return parts, err
}

// cryptJobRun runs one farmed JGF Crypt job over src and returns the
// spliced output.
func cryptJobRun(ns nodes, in *inputs, src []byte, key []int32, tr *tracer, callLat *latencies) ([]byte, error) {
	parts, err := groupJob[jgf.CryptWorker](ns, cryptClass, "Crypt", func(i int) []any {
		return []any{in.chunk(src, i), key}
	}, "crypt.job", tr, callLat)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(src))
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// runCrypt is the crypt workload: farmed jobs back to back until dur has
// elapsed, each checked bit for bit against the sequential IdeaCrypt.
func runCrypt(ns nodes, in *inputs, dur time.Duration, tr *tracer) (*outcome, error) {
	res := &outcome{}
	var lat, callLat latencies
	var doneAt, callDoneAt []time.Duration
	m, err := startMeter()
	if err != nil {
		return nil, err
	}
	ws := startWindows(windowLen)
	end := ws.start.Add(dur)
	for time.Now().Before(end) {
		t0 := time.Now()
		out, err := cryptJobRun(ns, in, in.data, in.key.Enc, tr, &callLat)
		d := time.Since(t0)
		done := time.Since(ws.start)
		doneAt = append(doneAt, done)
		for len(callDoneAt) < len(callLat) {
			callDoneAt = append(callDoneAt, done)
		}
		res.issued += cryptChunks
		switch {
		case err != nil:
			res.failed++
			d = failedSample
		case !bytes.Equal(out, in.cipher):
			res.mismatch++
		default:
			res.ok++
		}
		lat = append(lat, d)
	}
	snaps := ws.finish()
	if res.sample, err = m.stop(); err != nil {
		return nil, err
	}
	res.ops = split(snaps, lat, doneAt)
	res.calls = split(snaps, callLat, callDoneAt)
	return res, nil
}
