// Package trace provides lightweight, context-propagated resolution
// tracing. A client attaches a collector to its query context; every
// component on the path — the platform's load balancer, caches, the
// iterative resolver — appends events, and the client reads the full
// resolution story afterwards. The simulated network forwards the
// context into handlers, so traces cross simulated host boundaries.
//
// Tracing is opt-in and zero-cost when no collector is attached: call
// sites guard on From, so event arguments are boxed only when a trace
// will record them.
package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Event is one step of a resolution.
type Event struct {
	// Kind labels the step, e.g. "lb", "cache-hit", "upstream",
	// "referral", "cname", "forward".
	Kind string
	// Detail is the human-readable specifics.
	Detail string
}

// String renders the event.
func (e Event) String() string { return e.Kind + ": " + e.Detail }

// Trace collects events. It is safe for concurrent use.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// New creates an empty trace.
func New() *Trace { return &Trace{} }

// Add appends an event.
func (t *Trace) Add(kind, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, Event{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Events returns a copy of the collected events.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Kinds returns the event kinds in order — convenient for assertions.
func (t *Trace) Kinds() []string {
	events := t.Events()
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.Kind
	}
	return out
}

// String renders the whole trace, one event per line.
func (t *Trace) String() string {
	var sb strings.Builder
	for i, e := range t.Events() {
		fmt.Fprintf(&sb, "%2d. %s\n", i+1, e)
	}
	return sb.String()
}

type ctxKey struct{}

// With attaches t to ctx.
func With(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// From returns the trace attached to ctx, or nil. Guard each event with
//
//	if t := trace.From(ctx); t != nil { t.Add(...) }
//
// so an untraced query never boxes the event's arguments.
func From(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
