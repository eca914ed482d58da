package netsim

import (
	"context"
	"net/netip"

	"dnscde/internal/dnswire"
	"dnscde/internal/netsim/des"
)

// Responder is the completion callback of an event-native handler: the
// handler (or an event it scheduled) calls Respond exactly once, on the
// scheduler lane the query was delivered on, at the simulated instant
// the response leaves the server. The elapsed simulated time between
// delivery and Respond is the exchange's handler time.
type Responder interface {
	Respond(now des.Time, resp *dnswire.Message, err error)
}

// EventHandler serves a query arriving at a simulated host. It is the one
// handler contract of the simulated network: the handler schedules its
// stages (cache lookup, upstream recursion) on the delivering lane's
// scheduler and calls r.Respond when the response is ready, so a deep
// forwarding chain or resolution recursion interleaves with other traffic
// on the event loop and never blocks it. A handler with no work to wait
// for answers inline (HandlerFunc and the authoritative server do).
type EventHandler interface {
	ServeDNSEvent(ctx context.Context, sched *des.Scheduler, src netip.Addr, query *dnswire.Message, r Responder)
}

// discardResponder swallows a response — the sink for duplicate
// deliveries, whose response is dropped while the handler's side effects
// (cache fills) persist.
type discardResponder struct{}

func (discardResponder) Respond(des.Time, *dnswire.Message, error) {}
