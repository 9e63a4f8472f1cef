// Package hooks provides tiny helpers for composing observer callbacks.
//
// Several subsystems attach passive taps to the same hook points — the
// invariant auditor and the flight recorder both observe link.Port.OnRx,
// for example. Assigning a hook field directly clobbers whatever was
// installed before; Chain preserves it, invoking the previous subscriber
// first (attach order) and the new one after. Hooks composed this way
// stay strictly passive by contract: subscribers must not schedule
// events, draw randomness, or mutate the observed values, so chaining
// order can never change model behaviour — only observer behaviour. A
// packet passed to a subscriber is lent for the call only: it returns
// to its device's pool at its last use (see package packet), so a
// subscriber copies what it needs and never keeps the pointer.
package hooks

// Chain returns a callback invoking prev (if non-nil) then next. Use it
// to subscribe to a single-value hook field without clobbering earlier
// subscribers:
//
//	port.OnRx = hooks.Chain(port.OnRx, mine)
func Chain[T any](prev, next func(T)) func(T) {
	if prev == nil {
		return next
	}
	return func(v T) {
		prev(v)
		next(v)
	}
}

// Chain2 is Chain for two-argument hooks.
func Chain2[A, B any](prev, next func(A, B)) func(A, B) {
	if prev == nil {
		return next
	}
	return func(a A, b B) {
		prev(a, b)
		next(a, b)
	}
}

// Chain3 is Chain for three-argument hooks.
func Chain3[A, B, C any](prev, next func(A, B, C)) func(A, B, C) {
	if prev == nil {
		return next
	}
	return func(a A, b B, c C) {
		prev(a, b, c)
		next(a, b, c)
	}
}

// Chain4 is Chain for four-argument hooks.
func Chain4[A, B, C, D any](prev, next func(A, B, C, D)) func(A, B, C, D) {
	if prev == nil {
		return next
	}
	return func(a A, b B, c C, d D) {
		prev(a, b, c, d)
		next(a, b, c, d)
	}
}
