package proto

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"

	"repro/internal/sim"
)

// This file exports a view of the engines' pending state to the
// external test package, which drives them with the internal/check
// harness.

// PendingNotData walks k's pending events and every L1 and home waiter
// of e, and describes each one that is not data. Unless foreign claims
// an event's argument (a driver other than the engine scheduled it),
// the event and every waiter must run one of e's bound handlers with a
// *message. It also counts the engine events and waiters it checked.
func PendingNotData(e Engine, k *sim.Kernel, foreign func(arg any) bool) (bad []string, events, waiters int) {
	bound := boundHandlers(e)
	check := func(where string, fn func(any), arg any) {
		if _, ok := arg.(*message); !ok || !bound[reflect.ValueOf(fn).Pointer()] {
			bad = append(bad, fmt.Sprintf("%s: %s(%s) is not a bound handler with a *message", where, funcName(fn), funcName(arg)))
		}
	}
	k.ForEachPending(func(at sim.Time, fn func(any), arg any) {
		if foreign(arg) {
			return
		}
		events++
		check(fmt.Sprintf("event at t=%d", at), fn, arg)
	})
	e.(interface{ forEachWaiter(func(int, *waiter)) }).forEachWaiter(func(tile int, w *waiter) {
		waiters++
		check(fmt.Sprintf("waiter at tile %d", tile), w.fn, w.arg)
	})
	return bad, events, waiters
}

func (b *engineBase[P]) forEachWaiter(fn func(tile int, w *waiter)) {
	for i, t := range b.tiles {
		for _, r := range t.tx.records() {
			for _, w := range []*waiter{r.l1Head, r.homeHead} {
				for ; w != nil; w = w.next {
					fn(i, w)
				}
			}
		}
	}
}

// boundHandlers returns the code pointers of every func(any) field of
// e's engine struct and the structs it embeds: the handlers bound once.
func boundHandlers(e Engine) map[uintptr]bool {
	set := map[uintptr]bool{}
	handler := reflect.TypeOf(func(any) {})
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); {
			case f.Type() == handler && !f.IsNil():
				set[f.Pointer()] = true
			case f.Kind() == reflect.Struct:
				walk(f)
			}
		}
	}
	walk(reflect.ValueOf(e).Elem())
	return set
}

// funcName names a function value, or gives the type of anything else.
func funcName(v any) string {
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Func {
		return runtime.FuncForPC(rv.Pointer()).Name()
	}
	return fmt.Sprintf("%T", v)
}

// LoseMemoryResponse makes e drop the next memory response it
// receives, as a lost message would: the miss it answers never
// completes. It is the seam of the stall rule's test.
func LoseMemoryResponse(e Engine) {
	e.(interface{ loseMemoryResponse() }).loseMemoryResponse()
}

func (b *engineBase[P]) loseMemoryResponse() {
	deliver := b.memRespFn
	var lost atomic.Bool
	b.memRespFn = func(a any) {
		if lost.Swap(true) {
			deliver(a)
		}
	}
}
