package netsim

import (
	"context"
	"net/netip"
	"sync"
	"time"

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
// stages (cache lookup, upstream recursion, processing delay) on the
// delivering lane's scheduler and calls r.Respond when the response is
// ready, so a deep forwarding chain or resolution recursion interleaves
// with other traffic on the event loop and never blocks it. A handler
// with no work to wait for answers inline (HandlerFunc does) or after a
// fixed delay (RespondAfter).
type EventHandler interface {
	ServeDNSEvent(ctx context.Context, sched *des.Scheduler, src netip.Addr, query *dnswire.Message, r Responder)
}

// discardResponder swallows a response — the sink for duplicate
// deliveries, whose response is dropped while the handler's side effects
// (cache fills) persist.
type discardResponder struct{}

func (discardResponder) Respond(des.Time, *dnswire.Message, error) {}

// respondEvent is a pooled actor that delivers a Responder callback at a
// later simulated instant — the building block event-native handlers use
// to model fixed processing delay (see RespondAfter).
type respondEvent struct {
	r    Responder
	resp *dnswire.Message
	err  error
}

var _ des.Actor = (*respondEvent)(nil)

var respondEventPool = sync.Pool{New: func() any { return new(respondEvent) }}

// Fire delivers the callback and recycles the record.
//
//cdelint:hotpath
func (e *respondEvent) Fire(now des.Time, op uint8) {
	r, resp, err := e.r, e.resp, e.err
	*e = respondEvent{}
	respondEventPool.Put(e)
	r.Respond(now, resp, err)
}

// RespondAfter schedules r.Respond(resp, err) on sched after delay of
// simulated processing time; the delay inflates the client's round trip.
// Handlers whose work is a fixed delay (the authoritative server's
// per-query processing cost) implement EventHandler with one RespondAfter
// call.
//
//cdelint:hotpath
func RespondAfter(sched *des.Scheduler, delay time.Duration, r Responder, resp *dnswire.Message, err error) {
	e := respondEventPool.Get().(*respondEvent)
	e.r, e.resp, e.err = r, resp, err
	sched.Schedule(delay, e, 0)
}
