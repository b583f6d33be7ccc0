package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/remoting"
	"repro/internal/transport"
	"repro/parc"
)

// SkeletonRow is one scenario of the skeletons experiment. The "async"
// scenario proves the completion-driven future path: thousands of
// outstanding CallAsync futures from a single goroutine with a flat
// process goroutine count, then drain throughput once the gate opens.
// The two "scatter-*" scenarios race the Scatter/Gather skeleton against
// a hand-rolled goroutine-per-call fan-out over the same remote worker
// population; the skeleton must not lose.
type SkeletonRow struct {
	Scenario    string        `json:"scenario"` // "async" | "scatter-skeleton" | "scatter-handrolled"
	Nodes       int           `json:"nodes"`
	Workers     int           `json:"workers"`
	Calls       int           `json:"calls"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	CallsPerSec float64       `json:"calls_per_sec"`
	// Outstanding is the peak number of unresolved futures held by the
	// single submitting goroutine (async scenario only).
	Outstanding int `json:"outstanding,omitempty"`
	// GoroutineDelta is runtime.NumGoroutine at that peak minus the
	// post-setup baseline (async scenario only). The completion-driven
	// future path keeps it bounded by the channel's in-flight window, not
	// by Outstanding.
	GoroutineDelta int `json:"goroutine_delta,omitempty"`
}

// SkeletonConfig parameterises the skeletons experiment.
type SkeletonConfig struct {
	// Outstanding async futures to hold at once in the "async" scenario.
	Outstanding int
	// Workers in the scatter group, spread round-robin across the two
	// non-entry nodes.
	Workers int
	// Window is the sampling duration for each scatter variant.
	Window time.Duration
	// MaxInFlight caps concurrent wire exchanges per mux lane; the
	// goroutine-flatness bound derives from it, so it is part of the
	// experiment's contract rather than an ambient default.
	MaxInFlight int
}

// skelWorker is the scatter workload class: a trivial echo so the
// measured cost is the call path, not the method body.
type skelWorker struct{}

// Echo returns its argument.
func (skelWorker) Echo(v int) int { return v }

// skelGate is the async workload class: Hit parks until the run's release
// channel closes, so futures pile up client-side while the server's
// concurrency stays pinned to the in-flight window.
type skelGate struct {
	release <-chan struct{}
}

// Hit blocks until released, then echoes.
func (g *skelGate) Hit(v int) int {
	<-g.release
	return v
}

// RunSkeletons measures the completion-driven async path and the
// Scatter/Gather skeleton over a 3-node loopback-TCP cluster (multiplexed
// channel). It hard-asserts the goroutine-flatness contract itself — the
// delta at peak outstanding must stay within a small multiple of the
// per-lane in-flight window — so a regression to goroutine-per-call fails
// the bench outright, not just the diff. The skeleton-vs-handrolled
// calls/s ratio is the gated headline.
func RunSkeletons(cfg SkeletonConfig) ([]SkeletonRow, error) {
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 10000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Window <= 0 {
		cfg.Window = 300 * time.Millisecond
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}

	const nodes = 3
	release := make(chan struct{})
	net := transport.TCPNetwork{}
	rts := make([]*core.Runtime, nodes)
	addrs := make([]string, nodes)
	for i := range rts {
		ch := remoting.NewMultiplexedChannel(net)
		ch.MaxInFlight = cfg.MaxInFlight
		rt, err := core.Start(core.Config{
			NodeID:    i,
			Channel:   ch,
			Placement: core.LocalOnly{},
		}, "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: skeletons node %d: %w", i, err)
		}
		defer rt.Close()
		rts[i] = rt
		addrs[i] = rt.Addr()
	}
	for _, rt := range rts {
		if err := rt.JoinCluster(addrs); err != nil {
			return nil, err
		}
		rt.RegisterClass("skel.worker", func() any { return skelWorker{} })
		rt.RegisterClass("skel.gate", func() any { return &skelGate{release: release} })
	}

	asyncRow, err := runSkeletonAsync(rts, release, cfg)
	if err != nil {
		return nil, err
	}

	// The worker population lives on the non-entry nodes; the entry node
	// binds typed handles and drives both scatter variants over the exact
	// same objects so the comparison isolates the fan-out mechanism.
	ctx := context.Background()
	objs := make([]*parc.Object[skelWorker], cfg.Workers)
	for i := range objs {
		host := rts[1+i%(nodes-1)]
		o, err := parc.NewAt[skelWorker](host, "skel.worker")
		if err != nil {
			return nil, fmt.Errorf("bench: skeletons worker %d: %w", i, err)
		}
		objs[i] = parc.Bind[skelWorker](rts[0], o.Ref())
	}
	g := parc.GroupOf(objs...)
	defer g.Destroy(ctx) //nolint:errcheck // best-effort cleanup

	skeleton, err := runScatterSkeleton(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	handrolled, err := runScatterHandrolled(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	return []SkeletonRow{asyncRow, skeleton, handrolled}, nil
}

// runSkeletonAsync holds cfg.Outstanding unresolved futures against a
// gated object on node 1, snapshots the goroutine delta at peak, then
// opens the gate and times the drain. It then checks the same bound for
// futures parked on a local object (parkLocalFutures).
func runSkeletonAsync(rts []*core.Runtime, release chan struct{}, cfg SkeletonConfig) (SkeletonRow, error) {
	ctx := context.Background()
	hosted, err := parc.NewAt[skelGate](rts[1], "skel.gate")
	if err != nil {
		return SkeletonRow{}, fmt.Errorf("bench: skeletons gate: %w", err)
	}
	gate := parc.Bind[skelGate](rts[0], hosted.Ref())
	defer gate.Destroy(ctx) //nolint:errcheck // best-effort cleanup

	// Baseline after the lanes and their writer goroutines exist: one
	// released probe round-trip spins them up. The probe must not park on
	// the gate, so open-then-rearm is not an option — Hit with a closed
	// release would need a second object. Instead probe with a distinct
	// pre-released gate object.
	probeRelease := make(chan struct{})
	close(probeRelease)
	rts[1].RegisterClass("skel.gate.open", func() any { return &skelGate{release: probeRelease} })
	probeHosted, err := parc.NewAt[skelGate](rts[1], "skel.gate.open")
	if err != nil {
		return SkeletonRow{}, err
	}
	probe := parc.Bind[skelGate](rts[0], probeHosted.Ref())
	if _, err := parc.Call[int](ctx, probe, "Hit", 1); err != nil {
		return SkeletonRow{}, fmt.Errorf("bench: skeletons probe: %w", err)
	}
	probe.Destroy(ctx) //nolint:errcheck // best-effort cleanup
	runtime.GC()       // settle probe/teardown goroutines before the baseline
	baseline := runtime.NumGoroutine()

	results := make([]*parc.Result[int], cfg.Outstanding)
	for i := range results {
		results[i] = parc.CallAsync[int](ctx, gate, "Hit", i)
	}
	peak := runtime.NumGoroutine()
	delta := peak - baseline

	// The flatness contract: outstanding futures must not map to
	// goroutines. Blocked server handlers are bounded by the in-flight
	// window (all calls target one URI, hence one lane), plus slack for
	// runtime bookkeeping — nowhere near cfg.Outstanding.
	bound := 2*cfg.MaxInFlight + 32
	if delta > bound {
		return SkeletonRow{}, fmt.Errorf(
			"bench: skeletons: goroutine delta %d at %d outstanding futures exceeds bound %d (goroutine-per-call regression?)",
			delta, cfg.Outstanding, bound)
	}

	t0 := time.Now()
	close(release)
	sum, err := parc.WhenAll(results...).Get(ctx)
	elapsed := time.Since(t0)
	if err != nil {
		return SkeletonRow{}, fmt.Errorf("bench: skeletons drain: %w", err)
	}
	for i, v := range sum {
		if v != i {
			return SkeletonRow{}, fmt.Errorf("bench: skeletons drain: result %d came back %d", i, v)
		}
	}
	if err := parkLocalFutures(rts[0], cfg.Outstanding, bound); err != nil {
		return SkeletonRow{}, err
	}
	return SkeletonRow{
		Scenario:       "async",
		Nodes:          len(rts),
		Workers:        1,
		Calls:          cfg.Outstanding,
		Elapsed:        elapsed,
		CallsPerSec:    float64(cfg.Outstanding) / elapsed.Seconds(),
		Outstanding:    cfg.Outstanding,
		GoroutineDelta: delta,
	}, nil
}

// parkLocalFutures holds outstanding unresolved futures against a gated
// object hosted on rt itself and hard-fails when the goroutine count grows
// past bound: the mailbox resolves local futures, so they must not park a
// goroutine each either. It runs after the remote drain, untimed, so the
// async row's numbers are unaffected.
func parkLocalFutures(rt *core.Runtime, outstanding, bound int) error {
	ctx := context.Background()
	release := make(chan struct{})
	rt.RegisterClass("skel.gate.local", func() any { return &skelGate{release: release} })
	gate, err := parc.NewAt[skelGate](rt, "skel.gate.local")
	if err != nil {
		return fmt.Errorf("bench: skeletons local gate: %w", err)
	}
	defer gate.Destroy(ctx) //nolint:errcheck // best-effort cleanup
	if !gate.Proxy().IsLocal() {
		return fmt.Errorf("bench: skeletons local gate placed on another node")
	}
	baseline := runtime.NumGoroutine()
	results := make([]*parc.Result[int], outstanding)
	for i := range results {
		results[i] = parc.CallAsync[int](ctx, gate, "Hit", i)
	}
	delta := runtime.NumGoroutine() - baseline
	close(release)
	if delta > bound {
		return fmt.Errorf(
			"bench: skeletons: goroutine delta %d at %d outstanding local futures exceeds bound %d (goroutine-per-call regression?)",
			delta, outstanding, bound)
	}
	vals, err := parc.WhenAll(results...).Get(ctx)
	if err != nil {
		return fmt.Errorf("bench: skeletons local drain: %w", err)
	}
	for i, v := range vals {
		if v != i {
			return fmt.Errorf("bench: skeletons local drain: result %d came back %d", i, v)
		}
	}
	return nil
}

// runScatterSkeleton drives Scatter/Gather rounds for the window and
// verifies every echo on the way.
func runScatterSkeleton(ctx context.Context, g *parc.Group[skelWorker], cfg SkeletonConfig) (SkeletonRow, error) {
	calls := 0
	t0 := time.Now()
	for round := 0; time.Since(t0) < cfg.Window; round++ {
		rs := parc.Scatter[int](ctx, g, "Echo", func(i int) []any { return []any{round*g.Size() + i} })
		vals, err := parc.Gather(ctx, rs)
		if err != nil {
			return SkeletonRow{}, fmt.Errorf("bench: skeletons scatter round %d: %w", round, err)
		}
		for i, v := range vals {
			if v != round*g.Size()+i {
				return SkeletonRow{}, fmt.Errorf("bench: skeletons scatter: worker %d echoed %d", i, v)
			}
		}
		calls += g.Size()
	}
	elapsed := time.Since(t0)
	return SkeletonRow{
		Scenario:    "scatter-skeleton",
		Nodes:       3,
		Workers:     g.Size(),
		Calls:       calls,
		Elapsed:     elapsed,
		CallsPerSec: float64(calls) / elapsed.Seconds(),
	}, nil
}

// runScatterHandrolled is the control: the same rounds over the same
// objects, fanned out the pre-skeleton way — one goroutine per call doing
// a synchronous Invoke, joined with a WaitGroup.
func runScatterHandrolled(ctx context.Context, g *parc.Group[skelWorker], cfg SkeletonConfig) (SkeletonRow, error) {
	calls := 0
	t0 := time.Now()
	for round := 0; time.Since(t0) < cfg.Window; round++ {
		vals := make([]int, g.Size())
		errs := make([]error, g.Size())
		var wg sync.WaitGroup
		for i := 0; i < g.Size(); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := parc.Call[int](ctx, g.Object(i), "Echo", round*g.Size()+i)
				vals[i], errs[i] = v, err
			}(i)
		}
		wg.Wait()
		for i := range vals {
			if errs[i] != nil {
				return SkeletonRow{}, fmt.Errorf("bench: skeletons handrolled round %d: %w", round, errs[i])
			}
			if vals[i] != round*g.Size()+i {
				return SkeletonRow{}, fmt.Errorf("bench: skeletons handrolled: worker %d echoed %d", i, vals[i])
			}
		}
		calls += g.Size()
	}
	elapsed := time.Since(t0)
	return SkeletonRow{
		Scenario:    "scatter-handrolled",
		Nodes:       3,
		Workers:     g.Size(),
		Calls:       calls,
		Elapsed:     elapsed,
		CallsPerSec: float64(calls) / elapsed.Seconds(),
	}, nil
}

// SkeletonRatio extracts the scatter-skeleton over scatter-handrolled
// calls/s ratio of a run.
func SkeletonRatio(rows []SkeletonRow) (float64, bool) {
	var skel, hand float64
	for _, r := range rows {
		switch r.Scenario {
		case "scatter-skeleton":
			skel = r.CallsPerSec
		case "scatter-handrolled":
			hand = r.CallsPerSec
		}
	}
	if skel <= 0 || hand <= 0 {
		return 0, false
	}
	return skel / hand, true
}

// PrintSkeletons emits the skeletons table.
func PrintSkeletons(w io.Writer, rows []SkeletonRow) {
	fmt.Fprintln(w, "Skeletons — completion-driven futures (goroutine-flat async) and Scatter/Gather vs hand-rolled fan-out")
	fmt.Fprintf(w, "%-20s %6s %8s %10s %12s %12s %12s %10s\n",
		"scenario", "nodes", "workers", "calls", "elapsed", "calls/s", "outstanding", "g-delta")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %6d %8d %10d %12s %12.0f %12d %10d\n",
			r.Scenario, r.Nodes, r.Workers, r.Calls, r.Elapsed.Round(time.Microsecond),
			r.CallsPerSec, r.Outstanding, r.GoroutineDelta)
	}
	if ratio, ok := SkeletonRatio(rows); ok {
		fmt.Fprintf(w, "scatter skeleton vs handrolled: %.2fx\n", ratio)
	}
}
