package netsim

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"dnscde/internal/dnswire"
	"dnscde/internal/netsim/des"
)

// Exchange event-chain opcodes: one exchange is a linear chain of events
// spanning at most two scheduler lanes. opLaunch runs on the source's
// (home) lane: it packs the query, draws the outbound loss/jitter and
// either dies to opTimeout or travels to opDeliver. opDeliver runs on the
// destination's lane: decode, injected faults and the handler, which
// serves as an event chain on that lane and answers via Respond; the
// response is packed there and the chain hops back to the home lane as
// opReturn, which draws the return path and terminates in opComplete or
// opTimeout at the exchange's true simulated end time. opFail carries a
// destination-side error (malformed wire, handler failure) home. The
// hops use des.Scheduler.SendTo, so on a standalone scheduler they are
// ordinary same-lane events — the chain dispatches the same number of
// events in every mode.
const (
	opLaunch uint8 = iota
	opDeliver
	opReturn
	opComplete
	opTimeout
	opFail
)

// addrKey folds an address into the 64-bit partition key the sharded
// scheduler hashes lanes from.
//
//cdelint:hotpath
func addrKey(a netip.Addr) uint64 {
	b := a.As16()
	return binary.BigEndian.Uint64(b[:8]) ^ binary.BigEndian.Uint64(b[8:])
}

// LaneKey is the sharded-lane partition key of the connection's bound
// source address — the lane-affinity hint the retry layer uses to pick
// the event loop a source's exchanges launch on.
func (c *Conn) LaneKey() uint64 { return addrKey(c.src) }

// EventExchanger is implemented by transports that can run an exchange as
// an event chain on a caller-owned scheduler instead of blocking: the
// exchange is enqueued immediately, and done fires from the scheduler's
// dispatch loop at the exchange's simulated completion time. Callers
// multiplexing many concurrent clients on one scheduler (the scale
// experiment, udpnet's TCP-fallback chain) drive the scheduler themselves.
// When sched is a lane of a sharded scheduler, done fires on that same
// lane; the destination half of the chain may run on another lane.
type EventExchanger interface {
	ExchangeEvent(ctx context.Context, sched *des.Scheduler, query *dnswire.Message, dst netip.Addr, done func(*dnswire.Message, time.Duration, error))
}

var _ EventExchanger = (*Conn)(nil)

// exchangeState is the pooled per-exchange actor: all flow state for one
// query/response round trip lives here by value, and the same record is
// recycled through exchangeStatePool across exchanges. Stage methods fire
// from the scheduler; the draw order against the source's RNG stream is
// byte-identical to the historical blocking Exchange (see DESIGN.md §10,
// §12). Fields written on the destination lane (wire, handlerTime) are
// read on the home lane only after a simulated-time barrier, which is
// what makes the cross-lane handoff race-free without any locking.
type exchangeState struct {
	sched *des.Scheduler
	net   *Network
	c     *Conn
	ctx   context.Context
	query *dnswire.Message
	dst   netip.Addr

	cfg        *netConfig
	dstHost    *host
	srcProfile LinkProfile
	lr         *lockedRand
	fs         *flowState
	flowIdx    int

	homeLane int
	dstSched *des.Scheduler

	scratch *[]byte
	wire    []byte
	decoded *dnswire.Message

	start       des.Time
	deliverAt   des.Time
	oneWay      time.Duration
	handlerTime time.Duration

	resp *dnswire.Message
	rtt  time.Duration
	err  error

	// done, when non-nil, marks the asynchronous mode: settle invokes it
	// and returns the state to the pool. When nil, the blocking wrapper
	// reads the result fields after the scheduler drains.
	done func(*dnswire.Message, time.Duration, error)
}

var _ des.Actor = (*exchangeState)(nil)
var _ Responder = (*exchangeState)(nil)

var exchangeStatePool = sync.Pool{New: func() any { return new(exchangeState) }}

//cdelint:hotpath
func getExchangeState() *exchangeState {
	return exchangeStatePool.Get().(*exchangeState)
}

//cdelint:hotpath
func putExchangeState(st *exchangeState) {
	*st = exchangeState{}
	exchangeStatePool.Put(st)
}

// schedPool recycles the private schedulers the blocking top-level entry
// points (Exchange, ExchangeRetry outside a process) drive to completion.
// Handlers never block, so these schedulers never nest: a handler's
// upstream work runs as further events on the scheduler that delivered
// its query.
var schedPool = sync.Pool{New: func() any { return des.NewScheduler() }}

// Fire dispatches one stage of the exchange chain.
//
//cdelint:hotpath
func (st *exchangeState) Fire(now des.Time, op uint8) {
	switch op {
	case opLaunch:
		st.launch(now)
	case opDeliver:
		st.deliver(now)
	case opReturn:
		st.returnPath()
	case opComplete:
		st.settle(st.resp, st.rtt, nil)
	case opTimeout:
		st.settle(nil, st.rtt, ErrTimeout)
	case opFail:
		st.settle(nil, st.rtt, st.err)
	}
}

// settle terminates the chain: release the wire scratch, record the
// result, and in asynchronous mode deliver it and recycle the state.
// It always runs on the home lane.
func (st *exchangeState) settle(resp *dnswire.Message, rtt time.Duration, err error) {
	if st.scratch != nil {
		scratchPool.Put(st.scratch)
		st.scratch = nil
		st.wire = nil
	}
	st.resp, st.rtt, st.err = resp, rtt, err
	if st.done != nil {
		done := st.done
		st.done = nil
		done(resp, rtt, err)
		putExchangeState(st)
	}
}

// failTo hops a destination-side error back to the home lane, where
// settle may touch home-lane state (the caller's done callback).
//
//cdelint:hotpath
func (st *exchangeState) failTo(now des.Time, err error) {
	st.rtt = 0
	st.err = err
	st.dstSched.SendTo(st.homeLane, now, st, opFail)
}

// loseToTimeout arms the client's retransmission timer: the exchange
// terminates at start+timeout with ErrTimeout, and the charge is exactly
// the timeout — the timer runs concurrently with any server-side work, so
// handler time is never added on top (the pre-DES code overcharged the
// response-loss and late paths by handlerTime). Runs on the home lane.
//
//cdelint:hotpath
func (st *exchangeState) loseToTimeout() {
	st.rtt = st.cfg.timeout
	st.sched.ScheduleAt(st.start.Add(st.cfg.timeout), st, opTimeout)
}

// launch is the query-side stage, on the home lane: routing,
// fault-flow state, wire packing and the outbound loss/jitter draws, in
// exactly the order the blocking Exchange performed them.
//
//cdelint:hotpath
func (st *exchangeState) launch(now des.Time) {
	if err := st.ctx.Err(); err != nil {
		st.settle(nil, 0, err)
		return
	}
	n := st.net
	cfg := n.cfg.Load()
	st.cfg = cfg
	st.start = now

	// Creating the source stream consumes no draws, so hoisting it above
	// the route lookup leaves every subsequent draw identical to the
	// historical order.
	//cdelint:allow hotalloc per-source RNG stream is created once and cached in a sync.Map
	lr := n.srcRand(st.c.src)
	st.lr = lr

	h, ok := n.lookup(st.dst)
	if !ok {
		st.settle(nil, 0, fmt.Errorf("%w: %v", ErrNoRoute, st.dst))
		return
	}
	st.dstHost = h
	// The destination's lane is a pure function of its address — the same
	// splitmix64 mix detpar derives RNG streams from — so the delivery
	// half of the chain lands on the lane that owns the destination at
	// any shard count. Standalone schedulers answer lane 0 for everything
	// and SendTo degenerates to ScheduleAt.
	st.homeLane = st.sched.LaneIndex()
	dstLane := st.sched.LaneFor(addrKey(st.dst))
	st.dstSched = st.sched.LaneScheduler(dstLane)
	// An unregistered source (the usual case for probers, which Bind
	// arbitrary client addresses) gets the zero profile: a perfect local
	// link.
	var srcProfile LinkProfile
	if sh, ok := n.lookup(st.c.src); ok {
		srcProfile = sh.profile
	}
	st.srcProfile = srcProfile

	// Fault state for this (src → dst) flow, only materialised when a
	// FaultProfile is attached to either side: the zero-fault path must
	// consume byte-identical RNG draws to the pre-fault-layer simulator.
	dstFP := h.profile.Faults
	st.fs = nil
	if srcProfile.Faults != nil || dstFP != nil {
		st.fs = lr.flow(st.dst)
		st.flowIdx = lr.nextFlowIdx(st.fs)
	}

	scratch := scratchPool.Get().(*[]byte)
	st.scratch = scratch
	wire, err := st.query.AppendPack((*scratch)[:0])
	*scratch = wire[:0]
	if err != nil {
		st.settle(nil, 0, fmt.Errorf("%w: %w", ErrMalformed, err))
		return
	}
	st.wire = wire
	cfg.mSent.Inc()

	// Transient outage: a scheduled window on the destination's link; the
	// query vanishes and the client times out.
	if dstFP != nil && inOutage(dstFP.Outages, st.flowIdx) {
		cfg.mLost.Inc()
		noteFault(st.ctx, cfg, FaultOutage, st.c.src, st.dst)
		st.loseToTimeout()
		return
	}

	st.oneWay = srcProfile.OneWay + h.profile.OneWay +
		lr.jitter(srcProfile.Jitter) + lr.jitter(h.profile.Jitter)

	// Query packet subject to loss on either endpoint's link. The short-
	// circuit matters: with no faults attached this is exactly the
	// historical two-draw-max Bernoulli pattern.
	if lr.lostPacket(st.fs, srcProfile, true) || lr.lostPacket(st.fs, h.profile, false) {
		cfg.mLost.Inc()
		st.loseToTimeout()
		return
	}

	st.sched.SendTo(dstLane, st.start.Add(st.oneWay), st, opDeliver)
}

// deliver is the server-side stage, on the destination's lane: decode,
// injected faults, then the handler, which serves the query as an event
// chain on this lane and completes through Respond.
//
//cdelint:hotpath
func (st *exchangeState) deliver(now des.Time) {
	cfg, lr, h := st.cfg, st.lr, st.dstHost
	dstFP := h.profile.Faults
	st.deliverAt = now

	decoded, err := dnswire.Unpack(st.wire)
	if err != nil {
		st.failTo(now, fmt.Errorf("%w: %w", ErrMalformed, err))
		return
	}
	st.decoded = decoded

	// Injected server failure: the destination short-circuits with
	// SERVFAIL/REFUSED instead of resolving — one draw covers both rates.
	if dstFP != nil && (dstFP.ServFailRate > 0 || dstFP.RefusedRate > 0) {
		var injected dnswire.RCode
		injectedOK := false
		switch u := lr.roll(); {
		case u < dstFP.ServFailRate:
			injected, injectedOK = dnswire.RCodeServFail, true
			noteFault(st.ctx, cfg, FaultServFail, st.c.src, st.dst)
		case u < dstFP.ServFailRate+dstFP.RefusedRate:
			injected, injectedOK = dnswire.RCodeRefused, true
			noteFault(st.ctx, cfg, FaultRefused, st.c.src, st.dst)
		}
		if injectedOK {
			//cdelint:allow hotalloc injected-fault path; the synthesized response is the product
			resp := dnswire.NewResponse(decoded)
			resp.Header.RCode = injected
			st.handlerTime = 0
			st.finishServe(now, resp)
			return
		}
	}

	h.handler.ServeDNSEvent(st.ctx, st.dstSched, st.c.src, decoded, st)
}

// Respond implements Responder: the handler's completion, firing on the
// destination lane at the simulated instant the response is ready.
// Handler time is the simulated span since delivery, so upstream work
// inflates the client's round trip.
//
//cdelint:hotpath
func (st *exchangeState) Respond(now des.Time, resp *dnswire.Message, err error) {
	if err != nil {
		st.failTo(now, fmt.Errorf("netsim: handler at %v: %w", st.dst, err))
		return
	}
	st.handlerTime = now.Sub(st.deliverAt)
	cfg, lr, h := st.cfg, st.lr, st.dstHost
	dstFP := h.profile.Faults
	// Duplicated query delivery: the handler serves the query a second
	// time into a discarding responder, so its side effects (cache fills,
	// authoritative arrivals) persist while its response is dropped. TCP
	// streams never duplicate. The duplicate overlaps the original in real
	// time, so no extra latency is charged.
	if dstFP != nil && dstFP.DuplicateRate > 0 && !st.c.tcp && lr.roll() < dstFP.DuplicateRate {
		noteFault(st.ctx, cfg, FaultDuplicate, st.c.src, st.dst)
		h.handler.ServeDNSEvent(st.ctx, st.dstSched, st.c.src, st.decoded, discardResponder{})
	}
	st.finishServe(now, resp)
}

// finishServe completes the destination-side work — in-flight truncation,
// response packing, received-traffic accounting — and hops the chain back
// to the home lane as opReturn. Runs on the destination lane.
//
//cdelint:hotpath
func (st *exchangeState) finishServe(now des.Time, resp *dnswire.Message) {
	cfg, lr, h := st.cfg, st.lr, st.dstHost
	dstFP := h.profile.Faults

	// In-flight truncation: the response loses its record sections and
	// gains the TC bit, pushing TCP-capable clients to re-ask via
	// Conn.TCP / udpnet's FallbackTCP. TCP exchanges are immune.
	if dstFP != nil && dstFP.TruncateRate > 0 && !st.c.tcp && lr.roll() < dstFP.TruncateRate {
		noteFault(st.ctx, cfg, FaultTruncate, st.c.src, st.dst)
		//cdelint:allow hotalloc injected-truncation path; the synthesized response is the product
		tr := dnswire.NewResponse(st.decoded)
		tr.Header.RCode = resp.Header.RCode
		tr.Header.RecursionAvailable = resp.Header.RecursionAvailable
		tr.Header.Authoritative = resp.Header.Authoritative
		tr.Header.Truncated = true
		resp = tr
	}

	// The query bytes are fully decoded; reuse the same scratch for the
	// response direction.
	respWire, err := resp.AppendPack(st.wire[:0])
	*st.scratch = respWire[:0]
	if err != nil {
		st.failTo(now, fmt.Errorf("%w: %w", ErrMalformed, err))
		return
	}
	st.wire = respWire
	// The response is a *received* packet; the pre-DES code bumped the
	// sent counter here a second time, double-counting every clean
	// exchange's traffic.
	cfg.mRecvd.Inc()

	st.dstSched.SendTo(st.homeLane, now, st, opReturn)
}

// returnPath is the response-side stage, back on the home lane: the
// return-trip jitter/loss/late draws, response decode and RTT accounting,
// terminating in opComplete at the exchange's simulated end time.
//
//cdelint:hotpath
func (st *exchangeState) returnPath() {
	cfg, lr, h := st.cfg, st.lr, st.dstHost
	dstFP := h.profile.Faults

	returnWay := st.srcProfile.OneWay + h.profile.OneWay +
		lr.jitter(st.srcProfile.Jitter) + lr.jitter(h.profile.Jitter)

	// Response packet subject to loss as well; the client's timer fires
	// at start+timeout regardless of how long the server worked.
	if lr.lostPacket(st.fs, st.srcProfile, true) || lr.lostPacket(st.fs, h.profile, false) {
		cfg.mLost.Inc()
		st.loseToTimeout()
		return
	}

	// Late response: it arrives after the client's retransmission timer,
	// so the client sees a timeout (and pays for it) even though the
	// server did all its work.
	if dstFP != nil && dstFP.LateRate > 0 && lr.roll() < dstFP.LateRate {
		noteFault(st.ctx, cfg, FaultLate, st.c.src, st.dst)
		st.loseToTimeout()
		return
	}

	respDecoded, err := dnswire.Unpack(st.wire)
	if err != nil {
		st.settle(nil, 0, fmt.Errorf("%w: %w", ErrMalformed, err))
		return
	}

	rtt := st.oneWay + st.handlerTime + returnWay
	if st.c.tcp {
		// TCP pays a handshake round trip before the query flows.
		rtt += st.oneWay + returnWay
	}
	//cdelint:allow hotalloc per-destination histogram is cached; metrics were opted into by attaching a registry
	st.net.rttHist(cfg.metrics, st.dst).Observe(rtt.Microseconds())
	st.resp = respDecoded
	st.rtt = rtt
	st.sched.ScheduleAt(st.start.Add(rtt), st, opComplete)
}

// Exchange implements Exchanger. The query is packed to wire format,
// "transmitted" (subject to loss and latency), decoded, handled, and the
// response travels back the same way. The returned duration is the full
// simulated round-trip time including any upstream exchanges performed by
// the destination handler.
//
// The blocking wrapper drives a private pooled scheduler to completion;
// the exchange itself is the opLaunch/opDeliver/opReturn/opComplete event
// chain above. Exchange runs once per probe, millions of times per
// enumeration trial; its steady-state path must not allocate.
//
//cdelint:hotpath
func (c *Conn) Exchange(ctx context.Context, query *dnswire.Message, dst netip.Addr) (*dnswire.Message, time.Duration, error) {
	sched := schedPool.Get().(*des.Scheduler)
	st := getExchangeState()
	st.sched = sched
	st.net = c.net
	st.c = c
	st.ctx = ctx
	st.query = query
	st.dst = dst
	sched.Schedule(0, st, opLaunch)
	sched.Run()
	resp, rtt, err := st.resp, st.rtt, st.err
	putExchangeState(st)
	sched.Reset()
	schedPool.Put(sched)
	return resp, rtt, err
}

// ExchangeEvent implements EventExchanger: the exchange is enqueued on the
// caller's scheduler and done fires at the simulated completion time. The
// caller owns the scheduler single-threadedly; millions of concurrent
// client exchanges interleave on one event loop this way. When sched is a
// lane of a sharded universe, only the lane's own goroutine may call this,
// and done fires back on the same lane.
//
//cdelint:hotpath
func (c *Conn) ExchangeEvent(ctx context.Context, sched *des.Scheduler, query *dnswire.Message, dst netip.Addr, done func(*dnswire.Message, time.Duration, error)) {
	st := getExchangeState()
	st.sched = sched
	st.net = c.net
	st.c = c
	st.ctx = ctx
	st.query = query
	st.dst = dst
	st.done = done
	sched.Schedule(0, st, opLaunch)
}
