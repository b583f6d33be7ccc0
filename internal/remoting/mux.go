package remoting

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ctxwait"
	"repro/internal/errs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultMaxInFlight bounds concurrent exchanges per multiplexed lane when
// Channel.MaxInFlight is zero. The bound is backpressure: calls beyond it
// wait in the lane's admission queue until a slot frees — a synchronous
// caller parked on its call, a future costing no goroutine at all.
const DefaultMaxInFlight = 1024

// maxMuxLanes caps Channel.MuxLanes; past a few lanes per peer the wire is
// the bottleneck, not the locks, and each lane costs a connection plus two
// goroutines.
const maxMuxLanes = 64

// DefaultMuxLanes is the lane count used when Channel.MuxLanes is zero:
// one lane per processor up to four. A single-core process gets exactly
// the old single-connection behaviour; a many-core one spreads unrelated
// callers across connections so they never share a writer, a TCP stream,
// or an in-flight table.
func DefaultMuxLanes() int {
	return min(runtime.GOMAXPROCS(0), 4)
}

// inflightShards stripes each lane's in-flight table. Power of two so the
// shard index is a mask of the sequence number; 16 shards keep the
// collision probability negligible for hundreds of concurrent callers at
// the cost of 16 small maps per lane.
const inflightShards = 16

// inflightShard is one stripe of a lane's seq → call table. closed flips
// under mu when the lane fails, so a register racing the failure either
// lands in the map (and is drained with an error) or observes closed —
// never a silently dropped caller.
type inflightShard struct {
	mu     sync.Mutex
	m      map[uint64]*muxCall
	closed bool
}

// muxCall is one exchange on a multiplexed lane, from submission to
// completion; synchronous and asynchronous calls share it. The call waits
// in the admission queue until pump gives it an in-flight slot, then sits
// in the in-flight table until the reader hands the matching reply to cb,
// the one completion callback — a future's resolver, or the Done of a
// synchronous caller's waiter. claimed flips once the call leaves the
// queue (admitted by pump, withdrawn by abandon, or failed with its lane),
// so exactly one of them owns it. stop detaches the context.AfterFunc hook
// that abandons an asynchronous call when its ctx ends; a synchronous
// caller watches its ctx itself and arms none.
type muxCall struct {
	req     *callRequest
	of      outFrame
	ctx     context.Context
	cb      func(*callResponse, error)
	stop    func() bool
	claimed atomic.Bool
}

// bindShardCount stripes the client bind table by (URI, Method) hash.
// Binding is cold-path (first call per pair), but the confirmed-handle
// lookup on every call shares the stripes' read locks, so they must not
// funnel through one RWMutex.
const bindShardCount = 8

type bindShard struct {
	mu sync.RWMutex
	m  map[bindKey]*clientBind
}

// bindHash is FNV-1a over uri, '.', method — cheap, and uniform enough for
// eight stripes.
func bindHash(uri, method string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(uri); i++ {
		h = (h ^ uint32(uri[i])) * 16777619
	}
	h = (h ^ uint32('.')) * 16777619
	for i := 0; i < len(method); i++ {
		h = (h ^ uint32(method[i])) * 16777619
	}
	return h
}

// muxConn is one long-lived multiplexed lane to a peer address. Many
// request/response exchanges are in flight concurrently: a single writer
// goroutine drains sendq onto the wire, and a single reader goroutine
// matches each arriving response to its caller through the seq-keyed
// in-flight shards. Responses may complete in any order.
//
// A channel holds laneCount() lanes per peer, with callers striped across
// them by sequence number; each lane is its own connection, writer, reader
// and in-flight table, so callers on different lanes contend on nothing.
//
// Context cancellation abandons a call — the entry is removed from its
// in-flight shard and the late response is dropped by the reader — but the
// lane itself stays up, so one impatient caller cannot kill the exchanges
// of every other caller sharing the pipe.
type muxConn struct {
	ch      *Channel
	netaddr string
	lane    int
	slots   chan struct{} // in-flight backpressure semaphore
	done    chan struct{} // closed by fail
	ready   chan struct{} // closed once the dial settled (conn or dialErr)

	// Outbound frame queue. Unbounded by design: every queued frame
	// belongs to a call holding an in-flight slot, so MaxInFlight already
	// bounds it — and an enqueue that could block would let TCP
	// backpressure from a slow peer stall the reader (which enqueues
	// indirectly through pump), the classic distributed buffer deadlock.
	// outSig (capacity 1) wakes the writer.
	outMu  sync.Mutex
	outQ   []outFrame
	outSig chan struct{}

	// Admission queue: every call waits here until pump moves it into the
	// in-flight table. Unbounded — a future's call holds no goroutine, and
	// a synchronous caller parks on its own call, so the callers are the
	// queue.
	admitMu     sync.Mutex
	admitQ      []*muxCall
	admitClosed bool

	mu      sync.Mutex
	conn    transport.Conn // set by dial; nil when the dial failed
	dialErr error
	failed  bool
	failErr error

	inflight [inflightShards]inflightShard

	// Bound call handles (envelope.go): per-lane client state. bindShards
	// map (URI, Method) pairs to their handle entries; byHandle indexes the
	// same entries by handle-1 (copy-on-write, appends serialised by
	// handleMu) so the reader routes bind acks with an atomic load and a
	// slice index — no lock shared with callers declaring new pairs.
	// Handles die with the lane — a redial starts empty and re-declares,
	// which is what makes reconnects transparent.
	bindShards [bindShardCount]bindShard
	handleMu   sync.Mutex
	byHandle   atomic.Pointer[[]*clientBind]
}

// muxKey identifies one lane to one peer in the channel's peer table.
type muxKey struct {
	netaddr string
	lane    int
}

// bindKey identifies one bindable (URI, Method) pair.
type bindKey struct {
	uri    string
	method string
}

// clientBind tracks one declared handle. confirmed flips once the server
// acknowledges the declaration; from then on calls for the pair use the
// compact envelope.
type clientBind struct {
	handle    uint32
	confirmed atomic.Bool
}

// unboundSentinel is returned by bindFor when the handle space is
// exhausted: handle 0 means "never bind this pair".
var unboundSentinel = &clientBind{}

// bindFor returns the bind entry for a pair, declaring a fresh dense
// handle on first use.
func (mc *muxConn) bindFor(uri, method string) *clientBind {
	sh := &mc.bindShards[bindHash(uri, method)&(bindShardCount-1)]
	k := bindKey{uri: uri, method: method}
	sh.mu.RLock()
	cb := sh.m[k]
	sh.mu.RUnlock()
	if cb != nil {
		return cb
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cb := sh.m[k]; cb != nil {
		return cb
	}
	mc.handleMu.Lock()
	var cur []*clientBind
	if p := mc.byHandle.Load(); p != nil {
		cur = *p
	}
	if len(cur) >= maxBindHandles {
		mc.handleMu.Unlock()
		return unboundSentinel
	}
	cb = &clientBind{handle: uint32(len(cur) + 1)}
	next := make([]*clientBind, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = cb
	mc.byHandle.Store(&next)
	mc.handleMu.Unlock()
	if sh.m == nil {
		sh.m = make(map[bindKey]*clientBind)
	}
	sh.m[k] = cb
	return cb
}

// confirmBind records a server ack for a declared handle. Lock-free: the
// reader loads the copy-on-write handle index and flips the entry's flag.
func (mc *muxConn) confirmBind(handle uint32) {
	p := mc.byHandle.Load()
	if p == nil {
		return
	}
	if idx := int(handle) - 1; idx >= 0 && idx < len(*p) {
		(*p)[idx].confirmed.Store(true)
	}
}

// encodeRequest produces the wire frame for req on this lane: the compact
// envelope once the server confirmed the pair's handle, the string
// envelope (carrying the bind declaration) until then. Ownership of the
// returned pooled encoder follows Channel.encodeRequest.
func (mc *muxConn) encodeRequest(req *callRequest) (raw []byte, enc *wire.Encoder, err error) {
	bf, binary := mc.ch.binaryCodec()
	if !binary || mc.ch.DisableBinding {
		return mc.ch.encodeRequest(req)
	}
	cb := mc.bindFor(req.URI, req.Method)
	if cb.confirmed.Load() {
		return encodeBoundCall(cb.handle, req, bf.DisableGenerated)
	}
	req.Bind = cb.handle
	return mc.ch.encodeRequest(req)
}

// outFrame is one queued request frame. enc, when non-nil, is the pooled
// encoder whose buffer raw aliases: whoever consumes the frame (normally
// the writer goroutine, after the bytes hit the wire) releases it. Frames
// stranded in sendq when a lane fails are simply collected by the GC — a
// pool miss, not a leak.
type outFrame struct {
	raw []byte
	enc *wire.Encoder
}

// release returns the frame's encoder (if pooled) to the pool.
func (of outFrame) release() {
	if of.enc != nil {
		of.enc.Release()
	}
}

// errChannelClosed terminates in-flight calls when Channel.Close shuts a
// multiplexed peer down. It wraps ErrNodeDown for callers' errors.Is
// chains, but muxRoundTrip recognises it and never retries it — a retry
// would re-create the very connection Close just released.
var errChannelClosed = fmt.Errorf("channel closed: %w", errs.ErrNodeDown)

// getMux returns the live multiplexed lane for (netaddr, lane), dialling
// one when absent or when the previous one failed. The channel-wide lock
// is held only for the map access: the dial itself runs outside it (a slow
// or blackholed peer must not stall calls to healthy peers, nor Close),
// with concurrent callers for the same lane waiting on the ready channel
// of whichever caller dialled. fresh reports whether this call dialled — a
// failure on a fresh connection is a real peer failure, not staleness, so
// the caller must not retry it.
func (ch *Channel) getMux(netaddr string, lane int) (mc *muxConn, fresh bool, err error) {
	key := muxKey{netaddr: netaddr, lane: lane}
	for {
		ch.muxMu.Lock()
		existing := ch.muxPeers[key]
		if existing == nil {
			limit := ch.MaxInFlight
			if limit <= 0 {
				limit = DefaultMaxInFlight
			}
			mc = &muxConn{
				ch:      ch,
				netaddr: netaddr,
				lane:    lane,
				outSig:  make(chan struct{}, 1),
				slots:   make(chan struct{}, limit),
				done:    make(chan struct{}),
				ready:   make(chan struct{}),
			}
			for i := range mc.inflight {
				mc.inflight[i].m = make(map[uint64]*muxCall)
			}
			if ch.muxPeers == nil {
				ch.muxPeers = make(map[muxKey]*muxConn)
			}
			ch.muxPeers[key] = mc
			ch.muxMu.Unlock()
			if err := mc.dial(); err != nil {
				ch.removeMux(mc)
				return nil, false, err
			}
			return mc, true, nil
		}
		ch.muxMu.Unlock()
		<-existing.ready
		existing.mu.Lock()
		ok := existing.dialErr == nil && !existing.failed
		existing.mu.Unlock()
		if ok {
			return existing, false, nil
		}
		// Dead entry: forget it and race to install a fresh one.
		ch.removeMux(existing)
	}
}

// dial connects the lane and starts its writer/reader. It runs outside the
// channel lock; concurrent callers wait on ready. A shutdown that raced
// the dial (Channel.Close between map insert and connect) wins: the fresh
// connection is discarded.
func (mc *muxConn) dial() error {
	// Channel.dial applies the per-peer shared dial backoff, so a dead
	// peer's lanes (and any pooled callers) collapse into one capped,
	// jittered probe schedule instead of a redial storm.
	c, err := mc.ch.dial(mc.netaddr)
	mc.mu.Lock()
	switch {
	case err != nil:
		mc.dialErr = err
	case mc.failed:
		mc.mu.Unlock()
		c.Close()
		close(mc.ready)
		return mc.failureErr()
	default:
		mc.conn = c
	}
	live := mc.conn != nil
	dialErr := mc.dialErr
	mc.mu.Unlock()
	close(mc.ready)
	if live {
		go mc.writer()
		go mc.reader()
	}
	return dialErr
}

// removeMux forgets mc so the next call dials afresh. The map is guarded
// against replacing a newer lane that already took mc's slot.
func (ch *Channel) removeMux(mc *muxConn) {
	key := muxKey{netaddr: mc.netaddr, lane: mc.lane}
	ch.muxMu.Lock()
	if ch.muxPeers[key] == mc {
		delete(ch.muxPeers, key)
	}
	ch.muxMu.Unlock()
}

// muxRoundTrip performs one exchange over a multiplexed lane, retrying
// exactly once on a fresh connection when a reused long-lived connection
// turns out to have gone stale (peer restarted, transport dropped) before
// anything was received for this call. An orderly Channel.Close is never
// retried — redialling would undo the Close. See roundTrip for the
// at-most-once caveat the retry shares with the pooled path.
//
// The lane is chosen by sequence number, so concurrent callers spread
// uniformly across lanes while a synchronous caller (who holds at most one
// seq in flight) keeps its calls ordered trivially. Each lane fails and
// redials independently: a retry lands on a fresh connection for the same
// lane, whose bind table starts empty and re-declares.
//
// Encoding happens here, per lane, because the envelope variant depends on
// the lane's bind table (envelope.go); the retry re-encodes on the fresh
// lane, so a reconnect transparently falls back to string envelopes.
func (ch *Channel) muxRoundTrip(ctx context.Context, netaddr string, req *callRequest) (*callResponse, error) {
	lane := 0
	if n := ch.laneCount(); n > 1 {
		lane = int(req.Seq % uint64(n))
	}
	mc, fresh, err := ch.getMux(netaddr, lane)
	if err != nil {
		return nil, err
	}
	raw, enc, err := mc.encodeRequest(req)
	if err != nil {
		return nil, err
	}
	resp, err := mc.call(ctx, req, outFrame{raw: raw, enc: enc})
	if err == nil || fresh || ctx.Err() != nil || !isConnFailure(err) || errors.Is(err, errChannelClosed) {
		return resp, err
	}
	mc2, _, err2 := ch.getMux(netaddr, lane)
	if err2 != nil {
		return nil, err2
	}
	raw2, enc2, err2 := mc2.encodeRequest(req)
	if err2 != nil {
		return nil, err2
	}
	return mc2.call(ctx, req, outFrame{raw: raw2, enc: enc2})
}

// register adds a call to the lane's in-flight table, refusing when the
// lane already failed (the per-shard closed flag makes the race with fail
// safe: an entry either lands before the drain and is errored there, or
// the register observes closed).
func (mc *muxConn) register(seq uint64, c *muxCall) error {
	sh := &mc.inflight[seq&(inflightShards-1)]
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return mc.failureErr()
	}
	sh.m[seq] = c
	sh.mu.Unlock()
	return nil
}

// take removes and returns the call registered under seq, nil when the
// call was abandoned (or the lane failed). Exactly one of the reader,
// abandon and fail takes any given call, so the outcome is delivered
// exactly once.
func (mc *muxConn) take(seq uint64) *muxCall {
	sh := &mc.inflight[seq&(inflightShards-1)]
	sh.mu.Lock()
	c := sh.m[seq]
	if c != nil {
		delete(sh.m, seq)
	}
	sh.mu.Unlock()
	return c
}

// enqueueFrame appends of to the outbound queue and wakes the writer.
// Never blocks (see outQ); a frame enqueued after the lane failed is
// collected by the GC together with its encoder — a pool miss, not a leak.
func (mc *muxConn) enqueueFrame(of outFrame) {
	mc.outMu.Lock()
	mc.outQ = append(mc.outQ, of)
	mc.outMu.Unlock()
	select {
	case mc.outSig <- struct{}{}:
	default:
	}
}

// syncWaiters recycles the rendezvous of synchronous callers (see call).
var syncWaiters ctxwait.Pool[*callResponse]

// call runs one synchronous exchange: submit it through the admission
// queue like any other call, then wait for its callback or for ctx to end.
// A caller whose ctx ends abandons the call — the lane stays up for the
// other callers, a call still queued never reaches the wire, and the
// reader drops an admitted call's late reply. call owns of.
func (mc *muxConn) call(ctx context.Context, req *callRequest, of outFrame) (*callResponse, error) {
	w := syncWaiters.Get()
	c := &muxCall{req: req, of: of, ctx: ctx, cb: w.Done}
	if err := mc.submit(c, false); err != nil {
		syncWaiters.Put(w)
		return nil, err
	}
	resp, ok, err := w.Wait(ctx)
	if ok {
		syncWaiters.Put(w)
		return resp, err
	}
	if mc.abandon(c) {
		syncWaiters.Put(w) // cb will never run
	}
	return nil, mc.callErr(req, err)
}

// callErr annotates a connection- or context-level failure with the call it
// aborted.
func (mc *muxConn) callErr(req *callRequest, err error) error {
	return fmt.Errorf("remoting: call %s.%s: %w", req.URI, req.Method, err)
}

func (mc *muxConn) failureErr() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.failErr != nil {
		return mc.failErr
	}
	return errs.ErrNodeDown
}

// maxWriteBatch bounds how many queued frames one coalesced write carries,
// on the mux writer and the server's reply flusher alike. The bound keeps
// a single write's latency and buffer assembly predictable.
//
// Both writers drain greedily, but a greedy drain alone rarely finds more
// than one frame. On the client, the caller that enqueues readies the lane
// writer into its own processor's next-to-run slot, so the writer runs the
// moment that caller parks, before any other caller has had a turn; on the
// server, a handler usually finishes its own write before the next handler
// runs, so each one finds no active flusher. So before a short write
// — fewer than maxWriteBatch frames queued while the lane (or server
// connection) has more calls in flight than frames queued — the writer
// yields the processor once (coalesceYield), letting callers that are
// already runnable enqueue into the same write. A lone in-flight call
// never yields: its write goes out exactly as before.
const maxWriteBatch = 64

// coalesceYield reports whether a writer about to write queued frames
// should first yield once: only when the queue holds less than a full
// batch and more calls are in flight than frames queued, so another
// caller may be about to add one. Writers call it once per write.
func coalesceYield(queued, inflight int) bool {
	return queued > 0 && queued < maxWriteBatch && inflight > queued
}

// writer is the per-lane writer goroutine: it serialises frames from every
// caller onto the wire, swapping the whole accumulated queue out under one
// lock so frames that piled up — during the previous write, or during the
// one coalescing yield before a short write — leave in coalesced wire
// writes (chunks of maxWriteBatch) instead of one syscall each. Once a
// batch's bytes have left through the transport (which copies or vectors
// them), its pooled encoders are released. The spare slice ping-pongs with
// the queue's backing array, so the steady-state swap allocates nothing.
func (mc *muxConn) writer() {
	spare := make([]outFrame, 0, maxWriteBatch)
	raws := make([][]byte, 0, maxWriteBatch)
	for {
		select {
		case <-mc.outSig:
		case <-mc.done:
			return
		}
		for {
			mc.outMu.Lock()
			if coalesceYield(len(mc.outQ), len(mc.slots)) {
				mc.outMu.Unlock()
				runtime.Gosched()
				mc.outMu.Lock()
			}
			if len(mc.outQ) == 0 {
				mc.outMu.Unlock()
				break
			}
			batch := mc.outQ
			mc.outQ = spare[:0]
			mc.outMu.Unlock()
			for off := 0; off < len(batch); off += maxWriteBatch {
				end := min(off+maxWriteBatch, len(batch))
				raws = raws[:0]
				for _, of := range batch[off:end] {
					raws = append(raws, of.raw)
				}
				err := mc.ch.sendMsgBatch(mc.conn, raws)
				for _, of := range batch[off:end] {
					of.release()
				}
				if err != nil {
					mc.fail(fmt.Errorf("remoting: send to %s: %v: %w", mc.netaddr, err, errs.ErrNodeDown))
					return
				}
			}
			clear(batch) // drop frame refs before recycling the array
			spare = batch[:0]
		}
	}
}

// reader receives frames continuously and routes each response to the
// caller registered under its sequence number. A response without an
// in-flight entry belongs to an abandoned call and is dropped. Compact
// replies (which only a binding server sends, and only after this client
// declared a handle) also carry bind acks, applied here before routing.
//
// Frames the pool would not retain anyway (large payloads past the retain
// cap) decode in borrow mode: the result's []byte values alias the frame,
// the memcpy is skipped, and the GC frees frame and result together.
// Poolable frames decode with copies and recycle immediately, as always.
func (mc *muxConn) reader() {
	for {
		raw, err := mc.ch.recvMsg(mc.conn)
		if err != nil {
			mc.fail(fmt.Errorf("remoting: receive from %s: %v: %w", mc.netaddr, err, errs.ErrNodeDown))
			return
		}
		borrow := !transport.PoolableFrame(raw)
		var resp *callResponse
		var borrowed bool
		if isCompactFrame(raw, markBoundReply) {
			var ack uint32
			resp, ack, borrowed, err = decodeBoundReplyShared(raw, borrow)
			if err == nil && ack != 0 {
				mc.confirmBind(ack)
			}
		} else {
			resp, borrowed, err = mc.ch.decodeResponseShared(raw, borrow)
		}
		if !borrowed {
			transport.PutFrame(raw) // decode copied everything it kept
		}
		if err != nil {
			// A framing/codec failure desynchronises the stream; the
			// whole lane is unusable.
			mc.fail(err)
			return
		}
		if c := mc.take(resp.Seq); c != nil {
			// Calls complete inline here: a future's continuations run on
			// the reader goroutine (bounded, overflowing to the pool at the
			// future layer), which is what makes a resolved future cost no
			// parked goroutine. They must not block; see the README's
			// inline-continuation guidance.
			mc.finish(c, resp)
		}
	}
}

// fail moves the lane to its terminal state: it is removed from the
// channel's peer table (so the next call dials afresh), the transport is
// closed, and every in-flight caller receives err. Idempotent.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.failed {
		mc.mu.Unlock()
		return
	}
	mc.failed = true
	mc.failErr = err
	conn := mc.conn
	mc.mu.Unlock()
	mc.ch.removeMux(mc)
	if conn != nil {
		// nil while a racing dial is still connecting; dial observes
		// failed and discards its fresh connection itself.
		conn.Close()
	}
	close(mc.done)
	for i := range mc.inflight {
		sh := &mc.inflight[i]
		sh.mu.Lock()
		sh.closed = true
		pending := sh.m
		sh.m = nil
		sh.mu.Unlock()
		for _, c := range pending {
			// No slot bookkeeping post-mortem: the lane is gone. Callbacks
			// run iteratively here; a continuation that resubmits finds
			// this lane gone from the channel's peer table, so the drain
			// cannot recurse into it.
			if c.stop != nil {
				c.stop()
			}
			c.cb(nil, mc.callErr(c.req, err))
		}
	}
	mc.admitMu.Lock()
	mc.admitClosed = true
	q := mc.admitQ
	mc.admitQ = nil
	mc.admitMu.Unlock()
	for _, c := range q {
		if c.claimed.CompareAndSwap(false, true) {
			c.of.release()
			if c.stop != nil {
				c.stop()
			}
			c.cb(nil, mc.callErr(c.req, err))
		}
	}
}

// shutdown closes the lane as part of an orderly Channel.Close. The closed
// sentinel keeps callers from retrying onto a fresh connection.
func (mc *muxConn) shutdown() {
	mc.fail(fmt.Errorf("remoting: %w", errChannelClosed))
}

// submit queues c for admission and returns without waiting for a slot.
// An error return means c was not submitted and its cb will never run.
// With watch set and a cancellable ctx, a hook abandons c when ctx ends
// and hands cb the ctx error, queued or in flight alike.
func (mc *muxConn) submit(c *muxCall, watch bool) error {
	mc.admitMu.Lock()
	if mc.admitClosed {
		mc.admitMu.Unlock()
		c.of.release()
		return mc.callErr(c.req, mc.failureErr())
	}
	if watch && c.ctx.Done() != nil {
		// Armed before c is published, so every reader of c.stop sees it.
		c.stop = context.AfterFunc(c.ctx, func() {
			if mc.abandon(c) {
				c.cb(nil, mc.callErr(c.req, c.ctx.Err()))
			}
		})
	}
	mc.admitQ = append(mc.admitQ, c)
	mc.admitMu.Unlock()
	mc.pump()
	return nil
}

// abandon withdraws c after its ctx ended: a queued call is claimed so
// pump drops it unsent, an admitted one leaves the in-flight table and
// returns its slot. It reports whether it withdrew c; false means c's
// outcome is already being delivered (or c is between admission and
// registration, and completes normally).
func (mc *muxConn) abandon(c *muxCall) bool {
	if c.claimed.CompareAndSwap(false, true) {
		return true
	}
	if mc.take(c.req.Seq) == nil {
		return false
	}
	<-mc.slots
	mc.pump()
	return true
}

// pump moves queued calls into the in-flight table for as long as slots
// are free, without ever blocking — it runs on submitters and on the
// reader after every released slot.
func (mc *muxConn) pump() {
	for {
		select {
		case mc.slots <- struct{}{}:
		default:
			return
		}
		var c *muxCall
		mc.admitMu.Lock()
		for c == nil && len(mc.admitQ) > 0 && !mc.admitClosed {
			c = mc.admitQ[0]
			mc.admitQ[0] = nil
			mc.admitQ = mc.admitQ[1:]
			if !c.claimed.CompareAndSwap(false, true) {
				c.of.release() // abandoned while queued
				c = nil
			}
		}
		mc.admitMu.Unlock()
		if c == nil {
			<-mc.slots
			return
		}
		mc.start(c)
	}
}

// start registers one admitted call (its slot is already held) and hands
// its frame to the writer. A call that cannot start is failed on a fresh
// goroutine: pump may be running on a submitter's or the reader's stack,
// and a callback chain that submits follow-up calls must not recurse into
// pump.
func (mc *muxConn) start(c *muxCall) {
	err := c.ctx.Err()
	if err == nil {
		err = mc.register(c.req.Seq, c)
	}
	if err != nil {
		<-mc.slots
		c.of.release()
		if c.stop != nil {
			c.stop()
		}
		go c.cb(nil, mc.callErr(c.req, err))
		return
	}
	mc.enqueueFrame(c.of)
}

// finish completes an admitted call with its reply: detach the ctx hook,
// return the in-flight slot (admitting queued work) and run cb. The slot
// goes back before cb runs so a slow continuation cannot idle the pipe.
func (mc *muxConn) finish(c *muxCall, resp *callResponse) {
	if c.stop != nil {
		c.stop()
	}
	<-mc.slots
	mc.pump()
	c.cb(resp, nil)
}

// laneForURI stripes completion-driven calls by destination object rather
// than by sequence number: every async call to one object rides one lane,
// so a scatter round's frames to that object coalesce into the lane
// writer's batched wire writes, and per-object send order falls out of the
// single ordered outbound queue.
func (ch *Channel) laneForURI(uri string) int {
	n := ch.laneCount()
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(uri); i++ {
		h = (h ^ uint32(uri[i])) * 16777619
	}
	return int(h % uint32(n))
}

// muxSubmit is the mux half of roundTripAsync: resolve the destination
// lane, encode against its bind table and hand the frame to the lane's
// admission queue.
func (ch *Channel) muxSubmit(ctx context.Context, netaddr string, req *callRequest, cb func(*callResponse, error)) error {
	mc, _, err := ch.getMux(netaddr, ch.laneForURI(req.URI))
	if err != nil {
		return err
	}
	raw, enc, err := mc.encodeRequest(req)
	if err != nil {
		return err
	}
	return mc.submit(&muxCall{req: req, of: outFrame{raw: raw, enc: enc}, ctx: ctx, cb: cb}, true)
}
