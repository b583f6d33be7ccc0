package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/parc"
)

// bench is one workload's running system: its nodes and objects.
type bench struct {
	workload   string
	in         *inputs
	ns         nodes
	echo       *parc.Object[Echo] // echo and poisson target
	violations int                // failed invariant checks
}

// warmCalls is how many echo calls each caller makes while warming up.
const warmCalls = 64

// setup boots and joins the nodes, creates the workload's objects and
// warms the call path up with a fixed amount of checked work.
func (b *bench) setup() error {
	ns, err := bootNodes(cryptNodes)
	if err != nil {
		return err
	}
	b.ns = ns
	if b.workload == "crypt" {
		// One job each way: the farmed output must equal the sequential
		// ciphertext, and decrypt back to the input.
		var lat latencies
		out, err := cryptJobRun(ns, b.in, b.in.data, b.in.key.Enc, nil, &lat)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, b.in.cipher) {
			return fmt.Errorf("warm-up crypt job: %w", errMismatch)
		}
		back, err := cryptJobRun(ns, b.in, out, b.in.key.Dec, nil, &lat)
		if err != nil {
			return err
		}
		if !bytes.Equal(back, b.in.data) {
			return fmt.Errorf("warm-up decrypt job does not give back the input: %w", errMismatch)
		}
		return nil
	}
	if b.echo, err = newRemote[Echo](ns, echoClass); err != nil {
		return err
	}
	op := echoOp(b.echo, b.in)
	errs := make(chan error, echoCallers)
	var wg sync.WaitGroup
	for i := 0; i < echoCallers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < warmCalls; j++ {
				if err := op(i); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return fmt.Errorf("warm-up echo: %w", err)
	}
	return nil
}

func (b *bench) teardown() {
	if b.echo != nil {
		b.echo.Destroy(context.Background()) //nolint:errcheck // the nodes close next
		b.echo = nil
	}
	b.ns.close()
	b.ns = nil
}

// measure runs the workload for dur.
func (b *bench) measure(dur time.Duration, tr *tracer) (*outcome, error) {
	switch b.workload {
	case "echo":
		return runEcho(b.echo, b.in, dur, tr)
	case "poisson":
		return runPoisson(b.echo, b.in, dur, tr)
	default:
		return runCrypt(b.ns, b.in, dur, tr)
	}
}

// checkStats reports the runtime's Stats deltas over a measured phase and
// requires them to match the operations issued exactly: every parc.Call,
// parc.CallAsync and Scatter member is one synchronous-style call, no Send
// is issued, and with unbounded mailboxes and no deadlines nothing is shed
// or dropped.
func (b *bench) checkStats(o *outcome, before, after parc.Stats, v map[string]float64) {
	d := parc.Stats{
		SyncCalls:     after.SyncCalls - before.SyncCalls,
		AsyncCalls:    after.AsyncCalls - before.AsyncCalls,
		MailboxSheds:  after.MailboxSheds - before.MailboxSheds,
		DeadlineDrops: after.DeadlineDrops - before.DeadlineDrops,
	}
	v["core.sync_calls"] = float64(d.SyncCalls)
	v["core.async_calls"] = float64(d.AsyncCalls)
	v["core.sheds"] = float64(d.MailboxSheds)
	v["core.deadline_drops"] = float64(d.DeadlineDrops)
	want := parc.Stats{SyncCalls: o.issued}
	if d != want {
		b.violations++
		fmt.Fprintf(os.Stderr, "perfbench: %s: Stats deltas %+v do not match the %d calls issued\n", b.workload, d, o.issued)
	}
}
