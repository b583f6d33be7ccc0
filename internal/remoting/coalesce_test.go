package remoting

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// writeCounter tallies wire writes and the frames they carried.
type writeCounter struct {
	writes, frames atomic.Int64
}

func (w *writeCounter) framesPerWrite() float64 {
	return float64(w.frames.Load()) / float64(w.writes.Load())
}

// writeCountingNetwork wraps a network so every connection it dials
// counts its writes in client, and every connection it accepts in server.
type writeCountingNetwork struct {
	transport.Network
	client, server writeCounter
}

// sides names the two counters.
func (n *writeCountingNetwork) sides() map[string]*writeCounter {
	return map[string]*writeCounter{"client": &n.client, "server": &n.server}
}

func (n *writeCountingNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, wc: &n.client}, nil
}

func (n *writeCountingNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &writeCountingListener{Listener: l, wc: &n.server}, nil
}

type writeCountingListener struct {
	transport.Listener
	wc *writeCounter
}

func (l *writeCountingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, wc: l.wc}, nil
}

// writeCountingConn counts a Send as one write of one frame and a
// SendBatch as one write of all its frames, which is what the TCP
// transport does with them.
type writeCountingConn struct {
	transport.Conn
	wc *writeCounter
}

func (c *writeCountingConn) Send(msg []byte) error {
	c.wc.writes.Add(1)
	c.wc.frames.Add(1)
	return c.Conn.Send(msg)
}

func (c *writeCountingConn) SendBatch(msgs [][]byte) error {
	c.wc.writes.Add(1)
	c.wc.frames.Add(int64(len(msgs)))
	return transport.SendBatch(c.Conn, msgs)
}

// newCountingMuxServer serves a divideServer over loopback TCP on one mux
// lane and returns a reference to it with the write counters.
func newCountingMuxServer(t *testing.T) (*ObjRef, *writeCountingNetwork) {
	t.Helper()
	net := &writeCountingNetwork{Network: transport.TCPNetwork{}}
	ch := NewMultiplexedChannel(net)
	ch.MuxLanes = 1
	srv, err := ch.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(ch.Close)
	srv.RegisterWellKnown("d", Singleton, func() any { return &divideServer{} })
	ref, err := GetObject(ch, srv.URLFor("d"))
	if err != nil {
		t.Fatal(err)
	}
	return ref, net
}

// TestPipelinedWritesCoalesce: 32 synchronous callers sharing one lane
// keep many calls in flight, so both the lane writer and the server's
// reply flusher must carry several frames per wire write instead of
// writing each frame as soon as its caller enqueued it.
//
// The test pins one P: there the order in which the scheduler runs the
// yielding writer and the callers does not depend on the machine's CPU
// count, and both sides carry about 15-25 frames per write (1.0 without
// the yield, except on the client under -race, which slows the writer
// enough for callers to queue behind it). With more Ps the batch size
// depends on the core count, so it is not asserted.
func TestPipelinedWritesCoalesce(t *testing.T) {
	const callers, calls = 32, 200
	setProcs(t, 1)
	ref, net := newCountingMuxServer(t)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				if got, err := ref.Invoke("Divide", 8.0, 2.0); err != nil || got != 4.0 {
					t.Errorf("Divide = %v, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for name, wc := range net.sides() {
		if got := wc.frames.Load(); got != callers*calls {
			t.Errorf("%s frames = %d, want %d", name, got, callers*calls)
		}
		fpw := wc.framesPerWrite()
		t.Logf("%s: %.2f frames per write", name, fpw)
		if fpw < 2 {
			t.Errorf("%s: %.2f frames per write (%d writes), want ≥ 2", name, fpw, wc.writes.Load())
		}
	}
}

// TestSequentialCallerWritesEachFrame: a lone caller never has company to
// wait for, so each of its frames, and each reply, is one wire write.
func TestSequentialCallerWritesEachFrame(t *testing.T) {
	const calls = 200
	ref, net := newCountingMuxServer(t)
	for j := 0; j < calls; j++ {
		if _, err := ref.Invoke("Divide", 8.0, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	for name, wc := range net.sides() {
		if w, f := wc.writes.Load(), wc.frames.Load(); w != calls || f != calls {
			t.Errorf("%s: %d writes carrying %d frames, want %d of each", name, w, f, calls)
		}
	}
}
