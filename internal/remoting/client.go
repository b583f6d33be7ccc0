package remoting

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ctxwait"
	"repro/internal/errs"
)

// ObjRef is the client-side transparent proxy for a remote object — the
// value Activator.GetObject returns in the paper's Fig. 2. Method calls go
// through Invoke (synchronous), BeginInvoke/EndInvoke (asynchronous
// delegate) or OneWay (asynchronous, result discarded).
type ObjRef struct {
	ch      *Channel
	netaddr string
	uri     string
}

// GetObject returns a proxy for the object at url, for example
// "tcp://127.0.0.1:4000/DivideServer". No connection is made until the
// first call, matching Activator.GetObject's lazy behaviour.
func GetObject(ch *Channel, url string) (*ObjRef, error) {
	_, netaddr, uri, err := ParseURL(url)
	if err != nil {
		return nil, err
	}
	return &ObjRef{ch: ch, netaddr: netaddr, uri: uri}, nil
}

// NewObjRef builds a proxy from an already-split transport address and
// object URI (used by the SCOOPP runtime, which receives both from the
// object manager).
func NewObjRef(ch *Channel, netaddr, uri string) *ObjRef {
	return &ObjRef{ch: ch, netaddr: netaddr, uri: uri}
}

// URL reconstructs the object's remoting URL.
func (r *ObjRef) URL() string { return BuildURL(r.ch.Scheme(), r.netaddr, r.uri) }

// URI returns the object path component.
func (r *ObjRef) URI() string { return r.uri }

// NetAddr returns the transport address of the hosting server.
func (r *ObjRef) NetAddr() string { return r.netaddr }

// Channel returns the channel the proxy calls through.
func (r *ObjRef) Channel() *Channel { return r.ch }

// Invoke performs a synchronous remote method invocation. Server-side
// failures come back as *RemoteError.
func (r *ObjRef) Invoke(method string, args ...any) (any, error) {
	return r.InvokeCtx(context.Background(), method, args...)
}

// InvokeCtx performs a synchronous remote method invocation bounded by ctx:
// cancellation aborts the in-flight exchange (closing its connection) and
// the deadline travels in the request envelope so the server refuses work
// past it. Server-side failures come back as *RemoteError.
//
// When the channel's RetryPolicy is enabled, transient failures
// (Retryable: node-down, overload sheds) are retried with jittered
// exponential backoff — honouring a server retry-after hint over the
// computed delay — for as long as the attempt cap and the ctx deadline
// budget allow. A ctx carrying WithoutRetry, and any call whose failure is
// not classified retryable, gets exactly one attempt. An idempotency token
// carried by ctx (WithCallToken) rides every attempt unchanged, so a
// server that executed a lost-reply attempt replays the recorded reply
// instead of executing again.
func (r *ObjRef) InvokeCtx(ctx context.Context, method string, args ...any) (any, error) {
	req := r.request(ctx, method, args)
	if !r.retries(ctx) {
		return r.invokeOnce(ctx, req)
	}
	start := time.Now()
	result, err := r.invokeOnce(ctx, req)
	if err == nil {
		return result, nil
	}
	return r.retry(ctx, req, err, time.Since(start))
}

// request builds the envelope of one logical call, stamping ctx's deadline
// and idempotency token.
func (r *ObjRef) request(ctx context.Context, method string, args []any) *callRequest {
	req := &callRequest{
		URI:    r.uri,
		Method: method,
		Seq:    r.ch.nextSeq(),
		Args:   args,
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Deadline = dl.UnixNano()
	}
	if tok, ok := TokenFromContext(ctx); ok {
		req.TokClient, req.TokSeq = tok.Client, tok.Seq
	}
	return req
}

// retries reports whether calls under ctx run the RetryPolicy loop.
func (r *ObjRef) retries(ctx context.Context) bool {
	return r.ch.Retry.Enabled() && !retryDisabled(ctx)
}

// retry continues the RetryPolicy loop after req's first attempt failed
// with err, having taken cost: it retries while the failure is Retryable
// and the attempt cap and ctx's deadline budget allow.
func (r *ObjRef) retry(ctx context.Context, req *callRequest, err error, cost time.Duration) (any, error) {
	p := r.ch.Retry
	for attempt := 0; ; attempt++ {
		if !Retryable(err) || attempt >= p.MaxAttempts-1 {
			return nil, err
		}
		delay := p.retryDelay(err, attempt)
		if !budgetAllows(ctx, delay, cost) {
			return nil, err
		}
		if serr := sleepRetry(ctx, r.ch.closeSignal(), delay); serr != nil {
			return nil, fmt.Errorf("remoting: call %s.%s: retry aborted: %w", r.uri, req.Method, serr)
		}
		// Fresh seq per attempt: the failed attempt may still complete
		// server-side, and a reused number could be matched against its
		// late reply. The idempotency token (if any) stays, making the
		// retry deduplicable; the seq is per-exchange plumbing.
		req.Seq = r.ch.nextSeq()
		start := time.Now()
		var result any
		if result, err = r.invokeOnce(ctx, req); err == nil {
			return result, nil
		}
		cost = time.Since(start)
	}
}

// invokeOnce is a single InvokeCtx attempt: one roundTrip plus reply
// normalization into Go errors.
func (r *ObjRef) invokeOnce(ctx context.Context, req *callRequest) (any, error) {
	resp, err := r.ch.roundTrip(ctx, r.netaddr, req)
	if err != nil {
		return nil, err
	}
	return r.normalize(req, resp)
}

// normalize maps a reply envelope onto (result, error), rebuilding the
// sentinel chain (*RemoteError with Moved / RetryAfter) from the wire
// fields. Shared by the synchronous and completion-driven paths.
func (r *ObjRef) normalize(req *callRequest, resp *callResponse) (any, error) {
	if !resp.IsErr {
		return resp.Result, nil
	}
	re := &RemoteError{URI: r.uri, Method: req.Method, Msg: resp.ErrMsg, Code: resp.ErrCode}
	if resp.ErrCode == errs.CodeMoved {
		movedURI := resp.FwdURI
		if movedURI == "" {
			movedURI = r.uri
		}
		re.Moved = &errs.MovedError{URI: movedURI, Node: resp.FwdNode, Addr: resp.FwdAddr, Gen: resp.FwdGen}
	}
	if resp.ErrCode == errs.CodeOverloaded && resp.RetryAfterMs > 0 {
		re.RetryAfter = time.Duration(resp.RetryAfterMs) * time.Millisecond
	}
	return nil, re
}

// InvokeAsyncCb is InvokeCtx on the completion path: it submits the call
// and returns at once, and cb receives the normalized outcome exactly
// once, never on the caller's stack — on the multiplexed lane's reader
// goroutine for replies, on the exchange's goroutine for the other channel
// kinds. A failure the RetryPolicy would retry continues InvokeCtx's retry
// loop, within the same attempt budget, on a goroutine of its own.
func (r *ObjRef) InvokeAsyncCb(ctx context.Context, method string, args []any, cb func(any, error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	req := r.request(ctx, method, args)
	var start time.Time
	if r.retries(ctx) {
		start = time.Now()
	}
	done := func(resp *callResponse, err error) {
		var v any
		if err == nil {
			v, err = r.normalize(req, resp)
		}
		if err != nil && !start.IsZero() && Retryable(err) {
			go func() { cb(r.retry(ctx, req, err, time.Since(start))) }()
			return
		}
		cb(v, err)
	}
	if err := r.ch.roundTripAsync(ctx, r.netaddr, req, done); err != nil {
		go done(nil, err)
	}
}

// AsyncResult is the handle returned by BeginInvoke, the analogue of
// System.IAsyncResult for delegate BeginInvoke in the paper's Fig. 4.
type AsyncResult struct {
	done   chan struct{}
	result any
	err    error
}

// Done returns a channel closed when the call completes.
func (ar *AsyncResult) Done() <-chan struct{} { return ar.done }

// IsCompleted reports whether the call has finished without blocking.
func (ar *AsyncResult) IsCompleted() bool {
	select {
	case <-ar.done:
		return true
	default:
		return false
	}
}

// EndInvoke blocks until the call completes and returns its result, the
// analogue of delegate EndInvoke.
func (ar *AsyncResult) EndInvoke() (any, error) {
	<-ar.done
	return ar.result, ar.err
}

// BeginInvoke starts an asynchronous remote method invocation and returns
// immediately. On pooling channels each in-flight call uses its own pooled
// connection; on the multiplexed channel concurrent calls pipeline over one
// shared connection. Either way, concurrent BeginInvokes overlap on the
// wire.
func (r *ObjRef) BeginInvoke(method string, args ...any) *AsyncResult {
	ar := &AsyncResult{done: make(chan struct{})}
	go func() {
		defer close(ar.done)
		ar.result, ar.err = r.Invoke(method, args...)
	}()
	return ar
}

// OneWay invokes method asynchronously and discards the result. Transport
// errors are reported to onErr when non-nil. It is the building block the
// SCOOPP proxy uses for asynchronous void methods.
func (r *ObjRef) OneWay(method string, onErr func(error), args ...any) {
	go func() {
		if _, err := r.Invoke(method, args...); err != nil && onErr != nil {
			onErr(err)
		}
	}()
}

// OneWayTimeout is OneWay with a per-exchange deadline: the call is
// abandoned (and its connection closed) when d elapses, so a one-way
// stream aimed at a dead peer cannot pile up goroutines behind full call
// timeouts. Used for asynchronous replica-state shipping, where losing a
// snapshot only widens the replication lag until the next one lands.
func (r *ObjRef) OneWayTimeout(d time.Duration, method string, onErr func(error), args ...any) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		if _, err := r.InvokeCtx(ctx, method, args...); err != nil && onErr != nil {
			onErr(err)
		}
	}()
}

// Delegate is a typed wrapper around one remote method, mirroring a C#
// delegate bound to a proxy method (paper Fig. 4: RemoteAsyncDelegate). It
// exists so call sites read like the paper's generated code.
type Delegate struct {
	ref    *ObjRef
	method string
}

// NewDelegate binds a delegate to a method of a remote object.
func NewDelegate(ref *ObjRef, method string) *Delegate {
	return &Delegate{ref: ref, method: method}
}

// BeginInvoke starts the call asynchronously.
func (d *Delegate) BeginInvoke(args ...any) *AsyncResult {
	return d.ref.BeginInvoke(d.method, args...)
}

// Invoke performs the call synchronously.
func (d *Delegate) Invoke(args ...any) (any, error) {
	return d.ref.Invoke(d.method, args...)
}

// CallSequencer serialises asynchronous calls issued through it while
// letting the caller continue immediately — the ordering guarantee the
// SCOOPP runtime needs for method streams between one proxy object and its
// implementation object. The lane is completion-chained: one call is
// outstanding at a time, and call N+1 is submitted from call N's
// completion callback, so a busy lane parks no goroutine. Errors of Posted
// calls go to the OnError callback; a Submitted call's outcome goes to its
// own callback.
type CallSequencer struct {
	submit  func(ctx context.Context, method string, args []any, cb func(any, error))
	OnError func(error)

	mu      sync.Mutex
	queue   []queuedCall
	running bool
	idle    *sync.Cond
	pending int
	cur     func(any, error) // done of the call in flight
	next    func(any, error) // completeOne, bound once
}

type queuedCall struct {
	ctx    context.Context
	method string
	args   []any
	done   func(any, error)
}

// NewCallSequencer returns a sequencer whose calls go through ref.
func NewCallSequencer(ref *ObjRef) *CallSequencer {
	return NewCallSequencerFunc(ref.InvokeAsyncCb)
}

// NewCallSequencerFunc returns a sequencer whose calls go through submit,
// which must start one call and hand its outcome to cb exactly once, never
// on submit's own stack (ObjRef.InvokeAsyncCb's contract). Routing through
// a function rather than a fixed ObjRef lets the owner re-resolve the
// endpoint between calls — the SCOOPP proxy uses this to keep one ordered
// lane across an object migration.
func NewCallSequencerFunc(submit func(ctx context.Context, method string, args []any, cb func(any, error))) *CallSequencer {
	cs := &CallSequencer{submit: submit}
	cs.idle = sync.NewCond(&cs.mu)
	cs.next = cs.completeOne
	return cs
}

// Post enqueues an asynchronous call. Calls posted from one goroutine
// execute remotely in post order.
func (cs *CallSequencer) Post(method string, args ...any) {
	cs.Submit(context.Background(), method, args, nil)
}

// Submit enqueues an asynchronous call whose outcome goes to done (nil
// sends a failure to OnError, as for Post). The call is ordered after every
// call posted or submitted before it, and runs under ctx.
func (cs *CallSequencer) Submit(ctx context.Context, method string, args []any, done func(any, error)) {
	cs.mu.Lock()
	cs.queue = append(cs.queue, queuedCall{ctx: ctx, method: method, args: args, done: done})
	cs.pending++
	start := !cs.running
	cs.running = true
	cs.mu.Unlock()
	if start {
		cs.advance()
	}
}

// advance submits the head of the queue; its completion resumes the chain.
func (cs *CallSequencer) advance() {
	cs.mu.Lock()
	if len(cs.queue) == 0 {
		cs.running = false
		cs.mu.Unlock()
		return
	}
	call := cs.queue[0]
	cs.queue[0] = queuedCall{}
	cs.queue = cs.queue[1:]
	cs.cur = call.done
	cs.mu.Unlock()
	cs.submit(call.ctx, call.method, call.args, cs.next)
}

// completeOne is the completion callback of the call in flight: deliver
// its outcome, settle the bookkeeping, then submit the next call.
func (cs *CallSequencer) completeOne(v any, err error) {
	cs.mu.Lock()
	done := cs.cur
	cs.cur = nil
	cs.mu.Unlock()
	if done != nil {
		done(v, err)
	} else if err != nil && cs.OnError != nil {
		cs.OnError(err)
	}
	cs.mu.Lock()
	cs.pending--
	if cs.pending == 0 {
		cs.idle.Broadcast()
	}
	cs.mu.Unlock()
	cs.advance()
}

// Idle reports whether the lane has nothing queued or in flight — the
// window in which a caller may bypass the lane without reordering against
// it. A false result is only advisory (calls may drain concurrently), but
// true taken from the posting goroutine is authoritative: Posts from that
// goroutine would have been counted already.
func (cs *CallSequencer) Idle() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.pending == 0
}

// Flush blocks until every posted call has completed.
func (cs *CallSequencer) Flush() {
	cs.mu.Lock()
	for cs.pending > 0 {
		cs.idle.Wait()
	}
	cs.mu.Unlock()
}

// FlushCtx blocks until every posted call has completed or ctx is done, in
// which case it stops waiting (the queued calls keep draining in the
// background) and returns ctx.Err().
func (cs *CallSequencer) FlushCtx(ctx context.Context) error {
	return ctxwait.Drain(ctx, cs.Flush)
}

// String implements fmt.Stringer.
func (r *ObjRef) String() string {
	return fmt.Sprintf("ObjRef(%s)", r.URL())
}
