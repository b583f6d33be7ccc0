package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/jgf"
	"repro/parc"
)

// Echo is the echo and poisson workloads' remote object: a plain user
// class served through reflective dispatch.
type Echo struct{}

// Echo returns its argument.
func (Echo) Echo(b []byte) []byte { return b }

const (
	echoClass  = "perfbench.Echo"
	cryptClass = "jgf.CryptWorker"
)

// nodes is a set of parc.ServeNode nodes on loopback TCP, joined into one
// cluster inside this process. Node 0 is the entry node the workloads call
// from.
type nodes []*parc.Runtime

// bootNodes starts n nodes on the multiplexed channel with default mux
// lanes and joins them.
func bootNodes(n int) (nodes, error) {
	ns := make(nodes, 0, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		rt, err := parc.ServeNode(
			parc.WithNodeID(i),
			parc.WithListen("127.0.0.1:0"),
			parc.WithChannel(parc.MultiplexedChannel),
		)
		if err != nil {
			ns.close()
			return nil, fmt.Errorf("boot node %d: %w", i, err)
		}
		parc.RegisterAt[Echo](rt, echoClass)
		jgf.RegisterClasses(rt)
		ns = append(ns, rt)
		addrs[i] = rt.Addr()
	}
	for i, rt := range ns {
		if err := rt.JoinCluster(addrs); err != nil {
			ns.close()
			return nil, fmt.Errorf("join node %d: %w", i, err)
		}
	}
	return ns, nil
}

func (ns nodes) close() {
	for _, rt := range ns {
		rt.Close()
	}
}

// stats sums the runtime counters of every node.
func (ns nodes) stats() parc.Stats {
	var sum parc.Stats
	for _, rt := range ns {
		s := rt.Stats()
		sum.SyncCalls += s.SyncCalls
		sum.AsyncCalls += s.AsyncCalls
		sum.MailboxSheds += s.MailboxSheds
		sum.DeadlineDrops += s.DeadlineDrops
	}
	return sum
}

// newRemote creates an object of class through the entry node, retrying
// placement until it lands on another node; objects placed locally on the
// way are destroyed.
func newRemote[T any](ns nodes, class string) (*parc.Object[T], error) {
	ctx := context.Background()
	for i := 0; i < 2*len(ns); i++ {
		o, err := parc.NewAt[T](ns[0], class)
		if err != nil {
			return nil, err
		}
		if !o.Proxy().IsLocal() {
			return o, nil
		}
		if err := o.Destroy(ctx); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("placement never chose a remote node for %s", class)
}

// seededBytes returns n bytes drawn from rng.
func seededBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
