package dispatch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/errs"
)

// tableSize counts the methods the dispatch table holds for t.
func tableSize(t reflect.Type) int { return len(tab.Load().byType[t]) }

// emptyTable runs a test against an empty dispatch table, so each run
// (including -count>1 reruns) sees first calls, and restores the table
// after.
func emptyTable(t *testing.T) {
	saved := tab.Load()
	tab.Store(&table{byType: map[reflect.Type]map[string]entry{}})
	t.Cleanup(func() { tab.Store(saved) })
}

type lateThunk struct{}

func (*lateThunk) Name() string { return "plan" }

func TestRegisterAfterPlanTakesOver(t *testing.T) {
	emptyTable(t)
	obj := &lateThunk{}
	if got, err := Invoke(obj, "Name", nil); err != nil || got != "plan" {
		t.Fatalf("before registration: %v, %v", got, err)
	}
	if HasInvoker(obj, "Name") {
		t.Fatal("a cached plan reports as a generated thunk")
	}
	RegisterInvokers(obj, map[string]Invoker{
		"Name": func(context.Context, any, []any) (any, error) { return "thunk", nil },
	})
	if got, err := Invoke(obj, "Name", nil); err != nil || got != "thunk" {
		t.Errorf("after registration: %v, %v; want the thunk", got, err)
	}
	if !HasInvoker(obj, "Name") {
		t.Error("HasInvoker = false after registration")
	}
}

type peerNamed struct{}

func (*peerNamed) Known() int { return 1 }

// Method names arrive from peers: unknown ones must not grow the table.
func TestUnknownNamesAreNotCached(t *testing.T) {
	obj := &peerNamed{}
	typ := reflect.TypeOf(obj)
	if _, err := Invoke(obj, "Known", nil); err != nil {
		t.Fatal(err)
	}
	before := tableSize(typ)
	for i := 0; i < 10000; i++ {
		_, err := Invoke(obj, fmt.Sprintf("Unknown%d", i), nil)
		if !errors.Is(err, errs.ErrNoSuchMethod) {
			t.Fatalf("unknown name %d: %v", i, err)
		}
	}
	if after := tableSize(typ); after != before {
		t.Errorf("table holds %d methods for %v after 10,000 unknown names, want %d", after, typ, before)
	}
}

type firstCall struct{}

func (*firstCall) Square(v int) int { return v * v }

func TestConcurrentFirstCall(t *testing.T) {
	emptyTable(t)
	const callers = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	errc := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got, err := Invoke(&firstCall{}, "Square", []any{i})
			if err == nil && got != i*i {
				err = fmt.Errorf("Square(%d) = %v", i, got)
			}
			if err != nil {
				errc <- err
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := tableSize(reflect.TypeOf(&firstCall{})); n != 1 {
		t.Errorf("table holds %d methods for firstCall, want 1", n)
	}
}

func TestNilObject(t *testing.T) {
	_, err := Invoke(nil, "Anything", nil)
	var nm *NoMethodError
	if !errors.As(err, &nm) || !errors.Is(err, errs.ErrNoSuchMethod) {
		t.Errorf("Invoke(nil) = %v, want *NoMethodError", err)
	}
}

type byteEcho struct{}

func (*byteEcho) Echo(b []byte) []byte { return b }

// The reflective plan allocates only the call's result slice and the
// result value; the per-call MethodByName and parameter list are gone.
func TestInvokeAllocs(t *testing.T) {
	obj := &byteEcho{}
	args := []any{make([]byte, 64)}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Invoke(obj, "Echo", args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("dispatch.Invoke of func([]byte) []byte: %v allocs/call, want <= 2", allocs)
	}
}
