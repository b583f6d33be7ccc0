// Package dispatch implements dynamic method invocation on arbitrary
// objects: the server-side half of every transparent proxy in this
// repository. Both RPC stacks (remoting, rmi) and the SCOOPP runtime's
// intra-grain direct calls route through Invoke.
package dispatch

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/errs"
	"repro/internal/wire"
)

var (
	errorType = reflect.TypeOf((*error)(nil)).Elem()
	ctxType   = reflect.TypeOf((*context.Context)(nil)).Elem()
)

// Invoke calls an exported method on obj by name with decoded wire
// arguments, converting them to the declared parameter types. It is
// InvokeCtx with a background context.
func Invoke(obj any, method string, args []any) (any, error) {
	return InvokeCtx(context.Background(), obj, method, args)
}

// InvokeCtx calls an exported method on obj by name with decoded wire
// arguments, converting them to the declared parameter types. When the
// method's first parameter is a context.Context, ctx is injected there and
// the wire arguments fill the remaining parameters — this is how a caller's
// deadline reaches context-aware implementation methods.
//
// Supported method shapes: any number of non-variadic parameters (optionally
// led by a context.Context) and 0, 1 or 2 results. A trailing error result
// is mapped onto the returned error; a single non-error result is returned
// as the value.
//
// The method is resolved through the dispatch table (see InvokerFor): a
// generated invoker thunk when one is registered for obj's concrete type,
// otherwise a reflective plan built on the first call of that (type,
// method). A nil obj, or a name obj does not export, yields *NoMethodError.
func InvokeCtx(ctx context.Context, obj any, method string, args []any) (any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	inv, err := Resolve(obj, method)
	if err != nil {
		return nil, err
	}
	return inv(ctx, obj, args)
}

// Resolve returns the Invoker for method on obj's concrete type, or a
// *NoMethodError when obj is nil or exports no such method. Callers that
// apply one method many times (a batch replay) resolve it once.
func Resolve(obj any, method string) (Invoker, error) {
	if inv := InvokerFor(reflect.TypeOf(obj), method); inv != nil {
		return inv, nil
	}
	return nil, &NoMethodError{Obj: obj, Method: method}
}

// plan is the reflective call of one (concrete type, method), resolved
// once by InvokerFor so that later calls do no method lookup and no
// signature inspection.
type plan struct {
	fn     reflect.Value  // the method's Func; the receiver is its first argument
	name   string         // method name, for error messages
	params []reflect.Type // wire parameters, after the optional context
	ctx    bool           // the first parameter is a context.Context
	valAt  int            // index of the value result, or -1
	errAt  int            // index of the error result, or -1
	bad    error          // the shape cannot be called over the wire
}

func newPlan(t reflect.Type, m reflect.Method) *plan {
	p := &plan{fn: m.Func, name: m.Name, valAt: -1, errAt: -1}
	ft := m.Type
	if ft.IsVariadic() {
		p.bad = fmt.Errorf("method %s.%s is variadic; not supported over the wire", t, m.Name)
		return p
	}
	for i := 1; i < ft.NumIn(); i++ { // In(0) is the receiver
		p.params = append(p.params, ft.In(i))
	}
	if len(p.params) > 0 && p.params[0] == ctxType {
		p.ctx, p.params = true, p.params[1:]
	}
	switch ft.NumOut() {
	case 0:
	case 1:
		if ft.Out(0).Implements(errorType) {
			p.errAt = 0
		} else {
			p.valAt = 0
		}
	case 2:
		if !ft.Out(1).Implements(errorType) {
			p.bad = fmt.Errorf("method %s.%s: second result must be error", t, m.Name)
		}
		p.valAt, p.errAt = 0, 1
	default:
		p.bad = fmt.Errorf("method %s.%s: too many results (%d)", t, m.Name, ft.NumOut())
	}
	return p
}

// invoke is the plan's Invoker.
func (p *plan) invoke(ctx context.Context, obj any, args []any) (any, error) {
	if p.bad != nil {
		return nil, p.bad
	}
	if len(args) != len(p.params) {
		return nil, BadArity(obj, p.name, len(args), len(p.params))
	}
	var buf [6]reflect.Value
	in := buf[:0]
	if n := 2 + len(args); n > len(buf) {
		in = make([]reflect.Value, 0, n)
	}
	in = append(in, reflect.ValueOf(obj))
	if p.ctx {
		if ctx == nil {
			ctx = context.Background()
		}
		in = append(in, reflect.ValueOf(ctx))
	}
	for i, a := range args {
		v, err := wire.Assign(p.params[i], a)
		if err != nil {
			return nil, BadArg(obj, p.name, i, err)
		}
		in = append(in, v)
	}
	out := p.fn.Call(in)
	if p.errAt >= 0 && !out[p.errAt].IsNil() {
		return nil, out[p.errAt].Interface().(error)
	}
	if p.valAt >= 0 {
		return out[p.valAt].Interface(), nil
	}
	return nil, nil
}

// NoMethodError reports a failed method lookup. It names the candidate
// exported methods of the target so callers migrating from stringly-typed
// calls can spot typos, and unwraps to errs.ErrNoSuchMethod.
type NoMethodError struct {
	Obj    any
	Method string
}

// Error implements error.
func (e *NoMethodError) Error() string {
	names := MethodNames(e.Obj)
	if len(names) == 0 {
		return fmt.Sprintf("type %T has no method %q (no exported methods)", e.Obj, e.Method)
	}
	return fmt.Sprintf("type %T has no method %q (exported methods: %s)",
		e.Obj, e.Method, strings.Join(names, ", "))
}

// Unwrap makes errors.Is(err, errs.ErrNoSuchMethod) true.
func (e *NoMethodError) Unwrap() error { return errs.ErrNoSuchMethod }

// MethodNames returns the sorted exported method names of obj.
func MethodNames(obj any) []string {
	t := reflect.TypeOf(obj)
	if t == nil {
		return nil
	}
	names := make([]string, 0, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		names = append(names, t.Method(i).Name)
	}
	sort.Strings(names)
	return names
}

// HasMethod reports whether obj exposes an exported method with the given
// name; proxies use it to fail fast on typos.
func HasMethod(obj any, method string) bool {
	return InvokerFor(reflect.TypeOf(obj), method) != nil
}
