package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/jgf"
	"repro/internal/remoting"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/parc"
)

// shape is one workload's call as the ladder replays it: the same method,
// arguments, expected reply and concurrency, so that each rung adds one
// layer to the call below it.
type shape struct {
	class   string
	method  string
	callers int
	objects int // distinct target objects on the core and parc rungs
	args    func(i int) []any
	want    func(i int) []byte
	local   func() any // a fresh instance of the class
}

func echoShape(in *inputs, callers int) shape {
	return shape{
		class: echoClass, method: "Echo", callers: callers, objects: 1,
		args:  func(i int) []any { return []any{in.payloads[i%len(in.payloads)]} },
		want:  func(i int) []byte { return in.payloads[i%len(in.payloads)] },
		local: func() any { return Echo{} },
	}
}

// cryptShape calls Crypt on one 128 KiB chunk per caller, eight callers
// (the chunks one node receives in a job), each with its own worker.
func cryptShape(in *inputs) shape {
	const callers = cryptChunks / cryptNodes
	return shape{
		class: cryptClass, method: "Crypt", callers: callers, objects: callers,
		args:  func(i int) []any { return []any{in.chunk(in.data, i%cryptChunks), in.key.Enc} },
		want:  func(i int) []byte { return in.chunk(in.cipher, i%cryptChunks) },
		local: func() any { return jgf.CryptWorker{} },
	}
}

// request is the value the core layer puts on the wire for a call: the
// Invoke1 arguments (method name, argument list).
func (sh shape) request() any { return []any{sh.method, sh.args(0)} }

func checkReply(v any, want []byte) error {
	got, ok := v.([]byte)
	if !ok || !bytes.Equal(got, want) {
		return errMismatch
	}
	return nil
}

// rung is one ladder step's measurement.
type rung struct {
	callUs float64 // median span duration
	cpuUs  float64 // process CPU per call
	allocs float64 // process heap allocations per call
}

// rungOf summarises a rung's closed loop, whose spans are called name.
// Every call of a rung must succeed with the expected reply.
func rungOf(o *outcome, tr *tracer, name string) (rung, error) {
	if o.ok == 0 || o.failed+o.mismatch > 0 {
		return rung{}, fmt.Errorf("%s rung: %d calls ok, %d failed, %d mismatched", name, o.ok, o.failed, o.mismatch)
	}
	n := float64(o.issued)
	return rung{
		callUs: median(tr.named(name)) / 1e3,
		cpuUs:  float64(o.sample.cpu) / 1e3 / n,
		allocs: float64(o.sample.mem.Mallocs) / n,
	}, nil
}

// wireRung times encoding and decoding the call's request and reply
// values with the streaming codec, single-threaded. It returns nanoseconds
// for both encodes of one call, both decodes, and heap allocations for all
// four, and the encoded request frame.
func wireRung(sh shape, dur time.Duration, tr *tracer) (encNs, decNs, allocs float64, frame []byte, err error) {
	req, rep := sh.request(), any(sh.want(0))
	encode := func(v any) ([]byte, error) {
		e := wire.NewEncoder()
		defer e.Release()
		if err := e.Encode(v); err != nil {
			return nil, err
		}
		return append([]byte(nil), e.Bytes()...), nil
	}
	reqB, err := encode(req)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("wire: encode request: %w", err)
	}
	repB, err := encode(rep)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("wire: encode reply: %w", err)
	}
	decode := func(b []byte) (any, error) {
		d := wire.NewDecoder(b)
		defer d.Release()
		return d.Decode()
	}
	if v, err := decode(repB); err != nil || checkReply(v, sh.want(0)) != nil {
		return 0, 0, 0, nil, fmt.Errorf("wire: reply does not survive a round trip (%v)", err)
	}
	var encT, decT time.Duration
	iters := 0
	before := readMem()
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		call := tr.newID()
		for _, v := range []any{req, rep} {
			t0 := time.Now()
			e := wire.NewEncoder()
			if err := e.Encode(v); err != nil {
				return 0, 0, 0, nil, err
			}
			e.Release()
			t1 := time.Now()
			encT += t1.Sub(t0)
			tr.add(0, 0, call, "wire.Encode", tr.at(t0), tr.at(t1))
		}
		for _, b := range [][]byte{reqB, repB} {
			t0 := time.Now()
			if _, err := decode(b); err != nil {
				return 0, 0, 0, nil, err
			}
			t1 := time.Now()
			decT += t1.Sub(t0)
			tr.add(0, 0, call, "wire.Decode", tr.at(t0), tr.at(t1))
		}
		iters++
	}
	after := readMem()
	n := float64(iters)
	return float64(encT) / n, float64(decT) / n, float64(after.Mallocs-before.Mallocs) / n, reqB, nil
}

// rungOp is one closed-loop rung of the ladder: the span name its calls are
// recorded under and the call caller i makes.
type rungOp struct {
	name string
	op   func(i int) error
}

// transportOp echoes raw frames of the request's size over loopback TCP:
// one connection per caller, the server sending each frame straight back.
// The returned function closes both ends and waits for the server.
func transportOp(sh shape, frame []byte) (rungOp, func(), error) {
	net := transport.TCPNetwork{}
	ln, err := net.Listen("127.0.0.1:0")
	if err != nil {
		return rungOp{}, nil, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var served []transport.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			served = append(served, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(m); err != nil {
						return
					}
				}
			}()
		}
	}()
	conns := make([]transport.Conn, 0, sh.callers)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
		ln.Close()
		mu.Lock()
		for _, c := range served {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
	for i := 0; i < sh.callers; i++ {
		c, err := net.Dial(ln.Addr())
		if err != nil {
			closeAll()
			return rungOp{}, nil, err
		}
		conns = append(conns, c)
	}
	return rungOp{"transport.Send+Recv", func(i int) error {
		c := conns[i]
		if err := c.Send(frame); err != nil {
			return err
		}
		got, err := c.Recv()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, frame) {
			return errMismatch
		}
		return nil
	}}, closeAll, nil
}

// remotingOp calls ObjRef.Invoke on a plain well-known object served by a
// remoting server on the multiplexed channel, with no core runtime.
func remotingOp(sh shape) (rungOp, func(), error) {
	srvCh := remoting.NewMultiplexedChannel(transport.TCPNetwork{})
	srv, err := srvCh.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return rungOp{}, nil, err
	}
	srv.RegisterWellKnown("ladder", remoting.Singleton, sh.local)
	cliCh := remoting.NewMultiplexedChannel(transport.TCPNetwork{})
	closeAll := func() {
		cliCh.Close()
		srv.Close()
		srvCh.Close()
	}
	ref, err := remoting.GetObject(cliCh, srv.URLFor("ladder"))
	if err != nil {
		closeAll()
		return rungOp{}, nil, err
	}
	return rungOp{"remoting.ObjRef.Invoke", func(i int) error {
		v, err := ref.Invoke(sh.method, sh.args(i)...)
		if err != nil {
			return err
		}
		return checkReply(v, sh.want(i))
	}}, closeAll, nil
}

// dispatchRung times dispatch.Invoke on a local instance, single-threaded.
func dispatchRung(sh shape, dur time.Duration, tr *tracer) (ns, allocs float64, err error) {
	obj := sh.local()
	args := sh.args(0)
	iters := 0
	var total time.Duration
	before := readMem()
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		t0 := time.Now()
		v, err := dispatch.Invoke(obj, sh.method, args)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if err := checkReply(v, sh.want(0)); err != nil {
			return 0, 0, err
		}
		total += t1.Sub(t0)
		tr.add(0, 0, tr.newID(), "dispatch.Invoke", tr.at(t0), tr.at(t1))
		iters++
	}
	after := readMem()
	return float64(total) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters), nil
}

// targets creates the shape's remote objects on the cluster.
func targets[T any](ns nodes, sh shape) ([]*parc.Object[T], func(), error) {
	objs := make([]*parc.Object[T], 0, sh.objects)
	release := func() {
		for _, o := range objs {
			o.Destroy(context.Background()) //nolint:errcheck // teardown
		}
	}
	for i := 0; i < sh.objects; i++ {
		o, err := newRemote[T](ns, sh.class)
		if err != nil {
			release()
			return nil, nil, err
		}
		objs = append(objs, o)
	}
	return objs, release, nil
}

// proxyOps are the rungs on remote objects of the cluster:
// Proxy.InvokeCtx (core), parc.Call (parc), and parc.CallAsync followed by
// Get, which also times how long CallAsync takes to return.
func proxyOps[T any](objs []*parc.Object[T], sh shape, tr *tracer) []rungOp {
	ctx := context.Background()
	return []rungOp{
		{"core.Proxy.InvokeCtx", func(i int) error {
			v, err := objs[i%len(objs)].Proxy().InvokeCtx(ctx, sh.method, sh.args(i)...)
			if err != nil {
				return err
			}
			return checkReply(v, sh.want(i))
		}},
		{"parc.Call", func(i int) error {
			v, err := parc.Call[[]byte](ctx, objs[i%len(objs)], sh.method, sh.args(i)...)
			if err != nil {
				return err
			}
			return checkReply(v, sh.want(i))
		}},
		{"parc.CallAsync+Get", func(i int) error {
			t0 := time.Now()
			r := parc.CallAsync[[]byte](ctx, objs[i%len(objs)], sh.method, sh.args(i)...)
			tr.add(0, 0, tr.newID(), "parc.CallAsync", tr.at(t0), tr.now())
			v, err := r.Get(ctx)
			if err != nil {
				return err
			}
			return checkReply(v, sh.want(i))
		}},
	}
}

// ladder holds the rungs of one traced run.
type ladder struct {
	encNs, decNs, wireAllocs   float64
	transport, remoting        rung
	dispatchNs, dispatchAllocs float64
	core, parc                 rung
	submitUs                   float64
}

// ladderRounds is how many times the ladder cycles through its closed-loop
// rungs, each running dur/ladderRounds per round, so a drift in machine
// speed while the ladder runs spreads over every rung instead of landing
// on one and showing up as a layer's cost.
const ladderRounds = 5

// runLadder replays the call shape one layer at a time over loopback TCP:
// the codec and dispatch alone for dur/2 each, then the closed-loop rungs
// for dur each.
func runLadder[T any](ns nodes, sh shape, dur time.Duration, tr *tracer) (ladder, error) {
	var l ladder
	var frame []byte
	var err error
	if l.encNs, l.decNs, l.wireAllocs, frame, err = wireRung(sh, dur/2, tr); err != nil {
		return l, err
	}
	if l.dispatchNs, l.dispatchAllocs, err = dispatchRung(sh, dur/2, tr); err != nil {
		return l, fmt.Errorf("dispatch rung: %w", err)
	}
	tOp, closeT, err := transportOp(sh, frame)
	if err != nil {
		return l, fmt.Errorf("transport rung: %w", err)
	}
	defer closeT()
	rOp, closeR, err := remotingOp(sh)
	if err != nil {
		return l, fmt.Errorf("remoting rung: %w", err)
	}
	defer closeR()
	objs, release, err := targets[T](ns, sh)
	if err != nil {
		return l, err
	}
	defer release()
	ops := append([]rungOp{tOp, rOp}, proxyOps(objs, sh, tr)...)
	total := make([]outcome, len(ops))
	for r := 0; r < ladderRounds; r++ {
		for i, op := range ops {
			o, err := closedLoop(sh.callers, dur/ladderRounds, tr, op.name, op.op)
			if err != nil {
				return l, fmt.Errorf("%s rung: %w", op.name, err)
			}
			t := &total[i]
			t.ok, t.failed, t.mismatch, t.issued = t.ok+o.ok, t.failed+o.failed, t.mismatch+o.mismatch, t.issued+o.issued
			t.sample.cpu += o.sample.cpu
			t.sample.mem.Mallocs += o.sample.mem.Mallocs
		}
	}
	rungs := make([]rung, len(ops))
	for i, op := range ops {
		if rungs[i], err = rungOf(&total[i], tr, op.name); err != nil {
			return l, err
		}
	}
	l.transport, l.remoting, l.core, l.parc = rungs[0], rungs[1], rungs[2], rungs[3]
	l.submitUs = median(tr.named("parc.CallAsync")) / 1e3
	return l, nil
}

// into writes the ladder's metrics. Each layer's own time is its rung
// minus the rung below: the codec's own time is the four codec operations
// of a call, the transport's is the raw frame round trip, and remoting's
// is its rung minus both.
func (l ladder) into(v map[string]float64) {
	wireSelf := (l.encNs + l.decNs) / 1e3
	v["wire.encode_ns"] = l.encNs
	v["wire.decode_ns"] = l.decNs
	v["wire.allocs_per_call"] = l.wireAllocs
	v["wire.self_us"] = wireSelf
	v["transport.rtt_us"] = l.transport.callUs
	v["transport.cpu_us_per_call"] = l.transport.cpuUs
	v["remoting.call_us"] = l.remoting.callUs
	v["remoting.cpu_us_per_call"] = l.remoting.cpuUs
	v["remoting.allocs_per_call"] = l.remoting.allocs
	v["remoting.self_us"] = l.remoting.callUs - l.transport.callUs - wireSelf
	v["dispatch.invoke_ns"] = l.dispatchNs
	v["dispatch.allocs"] = l.dispatchAllocs
	v["core.call_us"] = l.core.callUs
	v["core.cpu_us_per_call"] = l.core.cpuUs
	v["core.allocs_per_call"] = l.core.allocs
	v["core.self_us"] = l.core.callUs - l.remoting.callUs
	v["parc.call_us"] = l.parc.callUs - l.core.callUs
	v["parc.cpu_us_per_call"] = l.parc.cpuUs
	v["ladder.call_us"] = l.parc.callUs
}

// lifecycleProbe runs crypt-shaped jobs on echo objects, so the echo
// workloads report the same lifecycle spans a crypt job records.
func lifecycleProbe(ns nodes, in *inputs, dur time.Duration, tr *tracer) error {
	var callLat latencies
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		got, err := groupJob[Echo](ns, echoClass, "Echo", func(i int) []any {
			return []any{in.payloads[i]}
		}, "lifecycle.job", tr, &callLat)
		if err != nil {
			return err
		}
		for i, b := range got {
			if !bytes.Equal(b, in.payloads[i]) {
				return fmt.Errorf("lifecycle probe: %w", errMismatch)
			}
		}
	}
	return nil
}

// generatorProbe runs the open-loop generator at the poisson rate with no
// calls attached, and returns its lateness: the precision of the load
// generator itself on the host it runs on.
func generatorProbe(seed int64, dur time.Duration) latencies {
	defer lockGenerator()()
	g := newGenerator(poissonSchedule(seed, poissonRate, dur))
	start := time.Now()
	for {
		g.overdue(time.Since(start))
		wait, more := g.wait(time.Since(start))
		if !more {
			return g.lateness()
		}
		preciseSleep(wait)
	}
}
