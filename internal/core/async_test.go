package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/remoting"
)

// holdObj parks every Hit in its mailbox until release closes.
type holdObj struct {
	release chan struct{}
}

// Hit blocks until released, then echoes.
func (h *holdObj) Hit(v int) int {
	<-h.release
	return v
}

// passiveSum has no lock of its own: only serial execution keeps it right.
type passiveSum struct {
	total int
}

func (s *passiveSum) Add(v int) { s.total += v }

func (s *passiveSum) Total() int { return s.total }

// startHold boots one node hosting the "hold" class and returns a local
// proxy plus the function that opens its gate (idempotent; also run at
// cleanup so Close is never stuck behind a parked call).
func startHold(t *testing.T) (*Proxy, func()) {
	t.Helper()
	rts := startNodes(t, 1, nil)
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(open)
	rts[0].RegisterClass("hold", func() any { return &holdObj{release: release} })
	p, err := rts[0].NewParallelObject("hold")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLocal() || p.IsAgglomerated() {
		t.Fatalf("want a local active object, got %v", p)
	}
	return p, open
}

// TestLocalFuturesParkNoGoroutine holds 10,000 outstanding InvokeAsync
// calls, then 10,000 Posts, behind a gated local object: the mailbox
// completes them, so neither may cost a goroutine per call.
func TestLocalFuturesParkNoGoroutine(t *testing.T) {
	const n, bound = 10000, 32
	p, open := startHold(t)

	base := runtime.NumGoroutine()
	futures := make([]*Future, n)
	for i := range futures {
		futures[i] = p.InvokeAsync("Hit", i)
	}
	if d := runtime.NumGoroutine() - base; d > bound {
		t.Errorf("goroutine delta %d at %d outstanding local futures, want <= %d", d, n, bound)
	}
	base = runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		p.Post("Hit", i)
	}
	if d := runtime.NumGoroutine() - base; d > bound {
		t.Errorf("goroutine delta %d at %d queued local posts, want <= %d", d, n, bound)
	}

	open()
	for i, f := range futures {
		if v, err := f.Get(); err != nil || v != i {
			t.Fatalf("future %d = %v, %v", i, v, err)
		}
	}
	p.Wait()
	if err := p.AsyncErr(); err != nil {
		t.Fatalf("posted call failed: %v", err)
	}
}

// TestLocalContinuationCallsSameObject registers a continuation on a
// pending local future that calls the same object synchronously. Run on
// the mailbox goroutine it would wait on that very mailbox forever; it
// must complete.
func TestLocalContinuationCallsSameObject(t *testing.T) {
	p, open := startHold(t)
	p.Post("Hit", 0) // holds the mailbox, so the continuation registers first
	f := p.InvokeAsync("Hit", 1).ThenAny(func(v any, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		return p.Invoke("Hit", v.(int)+1)
	})
	open()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, err := f.GetCtx(ctx); err != nil || v != 2 {
		t.Fatalf("continuation result = %v, %v; want 2", v, err)
	}
}

// TestLocalInvokeAsyncCtxExpires ends a local future's ctx while its call
// still waits in the mailbox: the future resolves with the ctx error at
// once, and the call is skipped when its turn comes.
func TestLocalInvokeAsyncCtxExpires(t *testing.T) {
	p, open := startHold(t)
	p.Post("Hit", 0)
	ctx, cancel := context.WithCancel(context.Background())
	f := p.InvokeAsyncCtx(ctx, "Hit", 1)
	cancel()
	wait, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	select {
	case <-f.Done():
	case <-wait.Done():
		t.Fatal("future did not resolve when its ctx ended")
	}
	if _, err := f.Get(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	open()
	p.Wait()
}

// TestAgglomeratedInvokeAsyncSerialisesWithPost interleaves InvokeAsync
// and Post on one agglomerated object. A passive object has no thread of
// control, so both run inline on the caller; an InvokeAsync run anywhere
// else would overlap the Posts (a data race under -race, a lost update
// without it).
func TestAgglomeratedInvokeAsyncSerialisesWithPost(t *testing.T) {
	rts := startNodes(t, 1, func(i int, cfg *Config) {
		cfg.Agglomeration = AlwaysAgglomerate{}
	})
	rts[0].RegisterClass("passive", func() any { return &passiveSum{} })
	p, err := rts[0].NewParallelObject("passive")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsAgglomerated() {
		t.Fatal("policy Always should agglomerate")
	}
	const rounds = 200
	futures := make([]*Future, 0, rounds)
	for i := 0; i < rounds; i++ {
		futures = append(futures, p.InvokeAsync("Add", 1))
		p.Post("Add", 1)
	}
	for _, f := range futures {
		if _, err := f.Get(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := p.Invoke("Total"); err != nil || got != 2*rounds {
		t.Fatalf("Total = %v, %v; want %d", got, err, 2*rounds)
	}
}

// TestAsyncOverloadRetriesLikeSync calls a remote object whose bounded
// mailbox is full, under RetryPolicy{MaxAttempts: 3}: a future must spend
// the same attempt budget as a synchronous call, so each causes exactly
// MaxAttempts sheds on the host.
func TestAsyncOverloadRetriesLikeSync(t *testing.T) {
	const attempts = 3
	rts, g := startGated(t, 2, 1, ShedNewest, func(i int, cfg *Config) {
		cfg.Placement = &forceNode{node: 1}
		cfg.Channel = remoting.NewMultiplexedChannel(cfg.Channel.Network())
		cfg.Channel.Retry = remoting.RetryPolicy{MaxAttempts: attempts}
	})
	p, err := rts[0].NewParallelObject("gate")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsLocal() {
		t.Fatal("object placed locally; wire path not exercised")
	}
	occupy(t, g, p)
	fillQueue(t, rts[1], p, 1)

	calls := []struct {
		name string
		call func() error
	}{
		{"InvokeCtx", func() error {
			_, err := p.InvokeCtx(context.Background(), "Quick")
			return err
		}},
		{"InvokeAsync", func() error {
			_, err := p.InvokeAsync("Quick").Get()
			return err
		}},
	}
	for _, c := range calls {
		before := rts[1].Stats().MailboxSheds
		if err := c.call(); !errors.Is(err, errs.ErrOverloaded) {
			t.Fatalf("%s: err = %v, want ErrOverloaded", c.name, err)
		}
		if got := rts[1].Stats().MailboxSheds - before; got != attempts {
			t.Errorf("%s: host sheds = %d, want %d (one per attempt)", c.name, got, attempts)
		}
	}
}
