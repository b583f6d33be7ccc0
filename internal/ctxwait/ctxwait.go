// Package ctxwait provides the shared shapes of waiting under a context:
// abandoning a blocking drain when the context ends (Drain, used by the
// actor mailbox and the remoting call sequencer), and the synchronous
// caller's rendezvous with a call that completes through a callback
// (Waiter, used by mailbox and multiplexed-lane calls).
package ctxwait

import "context"

// Drain runs wait (a blocking drain with no result) and returns nil when
// it finishes, or ctx.Err() when ctx ends first — in which case wait keeps
// running in the background until its own completion.
func Drain(ctx context.Context, wait func()) error {
	if ctx == nil || ctx.Done() == nil {
		wait()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
