// The dispatch table: how a method name becomes a call, resolved once per
// (concrete type, method).
//
// parcgen emits, for every //parc:parallel class, a map of Invoker thunks
// that bind arguments with plain type assertions and call the method
// directly; RegisterInvokers installs them in the table. A method without a
// thunk gets a reflective plan instead — the method's Func, parameter
// types, context flag and result shape — built on its first call and cached
// in the same table. Either way the per-request path is a lock-free map
// lookup: no MethodByName, no signature inspection, and for thunks no
// reflect.Value.Call. The runtime's own endpoints (core's actor endpoint and
// IO wrapper) register thunks too, so a remote call reaches the mailbox
// without reflection; only the user method itself may be called through a
// plan. Names arrive from peers, so only methods that exist are cached.
package dispatch

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Invoker executes one method on obj with decoded wire arguments. obj is
// always the concrete type the thunks were registered for (the table is
// keyed by it), so generated code may assert without checking.
type Invoker func(ctx context.Context, obj any, args []any) (any, error)

// entry is one resolved method: a generated thunk or a reflective plan.
type entry struct {
	inv   Invoker
	thunk bool // installed by RegisterInvokers
}

// table is the immutable snapshot swapped on every addition so the
// per-call lookup is lock-free.
type table struct {
	byType map[reflect.Type]map[string]entry
}

var (
	tabMu sync.Mutex
	tab   atomic.Pointer[table]
)

func init() {
	tab.Store(&table{byType: map[reflect.Type]map[string]entry{}})
}

// publish stores a copy of the table with add merged into t's methods.
// The caller holds tabMu.
func publish(t reflect.Type, add map[string]entry) {
	old := tab.Load()
	next := &table{byType: maps.Clone(old.byType)}
	methods := make(map[string]entry, len(old.byType[t])+len(add))
	maps.Copy(methods, old.byType[t])
	maps.Copy(methods, add)
	next.byType[t] = methods
	tab.Store(next)
}

// RegisterInvokers installs generated invoker thunks for the concrete type
// of sample (use the same pointer-ness objects are dispatched with: the
// SCOOPP runtime and the remoting factories create *T). Registering the
// same type again merges the maps, later registrations winning per method;
// a thunk also replaces a plan already cached for its method.
func RegisterInvokers(sample any, m map[string]Invoker) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("dispatch: RegisterInvokers with nil sample")
	}
	add := make(map[string]entry, len(m))
	for name, inv := range m {
		add[name] = entry{inv: inv, thunk: true}
	}
	tabMu.Lock()
	defer tabMu.Unlock()
	publish(t, add)
}

// HasInvoker reports whether a generated thunk is registered for the
// concrete type of obj and method.
func HasInvoker(obj any, method string) bool {
	e, ok := tab.Load().byType[reflect.TypeOf(obj)][method]
	return ok && e.thunk
}

// InvokerFor resolves method on the concrete type t: its generated thunk,
// else its reflective plan, building and caching the plan on first use. It
// returns nil only when t is nil or has no such exported method. The
// returned Invoker must only be handed objects whose reflect.TypeOf equals
// t.
func InvokerFor(t reflect.Type, method string) Invoker {
	if e, ok := tab.Load().byType[t][method]; ok {
		return e.inv
	}
	if t == nil {
		return nil
	}
	m, ok := t.MethodByName(method)
	if !ok {
		return nil
	}
	tabMu.Lock()
	defer tabMu.Unlock()
	if e, ok := tab.Load().byType[t][method]; ok {
		return e.inv // built or registered while we waited
	}
	inv := newPlan(t, m).invoke
	publish(t, map[string]entry{method: {inv: inv}})
	return inv
}

// Arg binds args[i] to T: a plain type assertion on the fast path, the
// wire.Assign conversion rules on mismatch (an int64 from an older peer
// binding to an int parameter, a []any to a typed slice, ...). Generated
// thunks perform the arity check before calling it.
func Arg[T any](args []any, i int) (T, error) {
	if v, ok := args[i].(T); ok {
		return v, nil
	}
	var zero T
	av, err := wire.Assign(reflect.TypeFor[T](), args[i])
	if err != nil {
		return zero, err
	}
	return av.Interface().(T), nil
}

// BadArg wraps an argument-binding failure with the method context; thunks
// and reflective plans report it alike.
func BadArg(obj any, method string, i int, err error) error {
	return fmt.Errorf("method %T.%s: argument %d: %w", obj, method, i, err)
}

// BadArity reports an argument-count mismatch; thunks and reflective plans
// report it alike.
func BadArity(obj any, method string, got, want int) error {
	return fmt.Errorf("method %T.%s: wire: got %d arguments, want %d", obj, method, got, want)
}
