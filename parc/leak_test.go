package parc_test

import (
	"context"
	"runtime"
	"testing"

	"repro/parc"
)

// byteSink is a remote class whose one method takes a large byte slice.
type byteSink struct{}

// Len returns the length of b.
func (byteSink) Len(b []byte) int { return len(b) }

// TestDestroyedObjectsReleaseCallArgs creates, calls once and destroys
// remote objects over TCP on the multiplexed channel. Each call carries a
// []byte argument too large for the frame pool, so the server decodes it
// borrowed from the request frame. Once the objects are destroyed and the
// heap collected, nothing may keep those frames alive: a mailbox that
// holds its last task, for one, pins one frame per object.
func TestDestroyedObjectsReleaseCallArgs(t *testing.T) {
	const (
		objects  = 200
		argBytes = 128 << 10
		maxGrow  = 8 << 20 // the pinned frames would be ≥ objects × argBytes = 25 MiB
	)
	var ns []*parc.Runtime
	var addrs []string
	for i := 0; i < 2; i++ {
		rt, err := parc.ServeNode(
			parc.WithNodeID(i),
			parc.WithListen("127.0.0.1:0"),
			parc.WithChannel(parc.MultiplexedChannel),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		parc.RegisterAt[byteSink](rt, "sink")
		ns = append(ns, rt)
		addrs = append(addrs, rt.Addr())
	}
	for _, rt := range ns {
		if err := rt.JoinCluster(addrs); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	arg := make([]byte, argBytes)
	// cycle creates, calls and destroys n remote objects; objects placed
	// on the calling node are destroyed unused.
	cycle := func(n int) {
		for done := 0; done < n; {
			obj, err := parc.NewAt[byteSink](ns[0], "sink")
			if err != nil {
				t.Fatal(err)
			}
			if !obj.Proxy().IsLocal() {
				if got, err := parc.Call[int](ctx, obj, "Len", arg); err != nil || got != argBytes {
					t.Fatalf("Len = %d, %v; want %d", got, err, argBytes)
				}
				done++
			}
			if err := obj.Destroy(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	heapInuse := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	cycle(20) // dial lanes and fill pools before measuring
	before := heapInuse()
	cycle(objects)
	if grow := heapInuse() - before; grow > maxGrow {
		t.Errorf("heap in use grew %.1f MiB over %d destroyed objects, want < %d MiB",
			float64(grow)/(1<<20), objects, maxGrow>>20)
	}
}
