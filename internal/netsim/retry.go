package netsim

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"net/netip"
	"sync"
	"time"

	"dnscde/internal/detpar"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim/des"
)

// retryAccounter is implemented by Exchangers that expose a retransmission
// counter (the simulated Conn when its Network has a metrics registry
// attached); other Exchangers, such as the real-socket transport, simply
// go uncounted.
type retryAccounter interface {
	retryCounter() *metrics.Counter
}

// Backoff is a deterministic exponential-backoff schedule for
// retransmissions: wait Base before the first retransmit, multiply by
// Factor each further retransmit, cap at Max, and spread each wait by a
// jitter fraction drawn deterministically from (query, dst, retry) — no
// wall clock, no global RNG, so simulated runs stay byte-identical at any
// worker count.
//
// The zero Backoff waits not at all, reproducing the legacy
// retransmit-immediately behaviour.
type Backoff struct {
	// Base is the wait before the first retransmission.
	Base time.Duration
	// Max caps any single wait; 0 means uncapped.
	Max time.Duration
	// Factor multiplies the wait per further retransmission; values < 1
	// are treated as 1 (constant schedule).
	Factor float64
	// Jitter spreads each wait uniformly over [1-Jitter, 1+Jitter] of its
	// nominal value, decorrelating retransmissions of concurrent probes
	// the way real stub resolvers do to avoid synchronised retry storms.
	Jitter float64
}

// DefaultBackoff mirrors a stub resolver's retransmission policy: 500ms
// initial timeout supplement, doubling per attempt, capped at 5s, ±25%
// jitter.
func DefaultBackoff() Backoff {
	return Backoff{Base: 500 * time.Millisecond, Max: 5 * time.Second, Factor: 2, Jitter: 0.25}
}

// Wait returns the pause before retransmission number retry (1-based).
// It is a pure function of (seed, retry): the jitter term comes from a
// splitmix64 derivation, not from any shared RNG stream, so inserting or
// removing backoff waits never perturbs the network's loss/jitter draws.
func (b Backoff) Wait(seed uint64, retry int) time.Duration {
	if b.Base <= 0 || retry < 1 {
		return 0
	}
	w := float64(b.Base)
	factor := b.Factor
	if factor < 1 {
		factor = 1
	}
	for i := 1; i < retry; i++ {
		w *= factor
		if b.Max > 0 && w >= float64(b.Max) {
			break
		}
	}
	if b.Max > 0 && w > float64(b.Max) {
		w = float64(b.Max)
	}
	if b.Jitter > 0 {
		u := float64(detpar.Derive(int64(seed), uint64(retry))) / float64(math.MaxInt64)
		w *= 1 - b.Jitter + 2*b.Jitter*u
	}
	return time.Duration(w)
}

// retrySeed derives the deterministic jitter seed for one logical probe.
// It hashes the question and destination — not the message ID, which is
// allocated from a process-global counter and therefore differs between
// scheduling orders of concurrent probers.
func retrySeed(query *dnswire.Message, dst netip.Addr) uint64 {
	h := fnv.New64a()
	if q, err := query.FirstQuestion(); err == nil {
		h.Write([]byte(q.Name))
		var tb [2]byte
		tb[0], tb[1] = byte(q.Type>>8), byte(q.Type)
		h.Write(tb[:])
	}
	b := dst.As16()
	h.Write(b[:])
	return h.Sum64()
}

// retryState is the pooled actor driving one retransmission schedule as an
// event chain: each Fire launches one attempt via ExchangeEvent, the
// attempt's completion lands in onResult, and a lost attempt re-arms the
// actor after the backoff wait — all in simulated time on one scheduler.
type retryState struct {
	sched    *des.Scheduler
	ex       EventExchanger
	ctx      context.Context
	query    *dnswire.Message
	dst      netip.Addr
	attempts int
	bo       Backoff
	retries  *metrics.Counter
	seed     uint64

	attempt int
	total   time.Duration
	lastErr error

	resp *dnswire.Message
	err  error
	done func(*dnswire.Message, time.Duration, error)

	// onResultFn is the bound method value handed to ExchangeEvent; it is
	// created once per pooled record and survives recycling, so the retry
	// chain allocates no per-attempt closure.
	onResultFn func(*dnswire.Message, time.Duration, error)
}

var _ des.Actor = (*retryState)(nil)

var retryStatePool = sync.Pool{New: func() any { return new(retryState) }}

//cdelint:hotpath
func getRetryState() *retryState {
	rs := retryStatePool.Get().(*retryState)
	if rs.onResultFn == nil {
		//cdelint:allow hotalloc the bound method value is created once per pooled record, then reused
		rs.onResultFn = rs.onResult
	}
	return rs
}

//cdelint:hotpath
func putRetryState(rs *retryState) {
	rs.sched = nil
	rs.ex = nil
	rs.ctx = nil
	rs.query = nil
	rs.dst = netip.Addr{}
	rs.attempts = 0
	rs.bo = Backoff{}
	rs.retries = nil
	rs.seed = 0
	rs.attempt = 0
	rs.total = 0
	rs.lastErr = nil
	rs.resp = nil
	rs.err = nil
	rs.done = nil
	retryStatePool.Put(rs)
}

// Fire launches the current attempt.
//
//cdelint:hotpath
func (rs *retryState) Fire(now des.Time, op uint8) {
	rs.ex.ExchangeEvent(rs.ctx, rs.sched, rs.query, rs.dst, rs.onResultFn)
}

// onResult receives one attempt's outcome and either settles the schedule
// or arms the next retransmission after the backoff wait.
//
//cdelint:hotpath
func (rs *retryState) onResult(resp *dnswire.Message, rtt time.Duration, err error) {
	rs.total += rtt
	if err == nil {
		rs.settle(resp, nil)
		return
	}
	rs.lastErr = err
	if !errors.Is(err, ErrTimeout) {
		rs.settle(nil, err)
		return
	}
	rs.attempt++
	if rs.attempt >= rs.attempts {
		rs.settle(nil, rs.lastErr)
		return
	}
	// Cancellation is honoured between attempts: once ctx is done, no
	// further retransmission is sent and the context's error is returned
	// as-is — distinct from ErrTimeout, so callers can tell an aborted
	// measurement from packet loss.
	if cerr := rs.ctx.Err(); cerr != nil {
		rs.settle(nil, cerr)
		return
	}
	rs.retries.Inc()
	// The backoff wait is simulated time: it inflates both this probe's
	// cumulative cost and, because the wait elapses on the event loop, the
	// round trip of any exchange whose handler issued the schedule.
	wait := rs.bo.Wait(rs.seed, rs.attempt)
	rs.total += wait
	rs.sched.Schedule(wait, rs, 0)
}

// settle records the schedule's outcome; in asynchronous mode it delivers
// the result and recycles the state.
func (rs *retryState) settle(resp *dnswire.Message, err error) {
	rs.resp, rs.err = resp, err
	if rs.done != nil {
		done, total := rs.done, rs.total
		rs.done = nil
		done(resp, total, err)
		putRetryState(rs)
	}
}

// initRetryState primes a pooled record for one schedule.
//
//cdelint:hotpath
func initRetryState(rs *retryState, sched *des.Scheduler, ex EventExchanger, ctx context.Context, query *dnswire.Message, dst netip.Addr, attempts int, bo Backoff) {
	rs.sched = sched
	rs.ex = ex
	rs.ctx = ctx
	rs.query = query
	rs.dst = dst
	rs.attempts = attempts
	rs.bo = bo
	rs.seed = retrySeed(query, dst)
	if ra, ok := ex.(retryAccounter); ok {
		rs.retries = ra.retryCounter()
	}
}

// ExchangeRetry performs an exchange with up to attempts tries, retrying
// only on timeout (packet loss) with the DefaultBackoff schedule between
// attempts. It mirrors a stub resolver's retransmission behaviour and
// returns the cumulative time spent across all attempts — timeouts plus
// backoff waits — so lost packets cost simulated time the way they cost a
// real measurement wall-clock time.
//
// Cancellation is honoured between attempts: once ctx is done, no further
// retransmission is sent and the context's error is returned as-is —
// distinct from ErrTimeout, so callers can tell an aborted measurement
// from packet loss. The check is needed here because transports may
// surface a ctx-deadline expiry as an ordinary timeout (a real UDP socket
// clamps its read deadline to the ctx deadline), which would otherwise
// keep a cancelled prober retransmitting until attempts ran out.
func ExchangeRetry(ctx context.Context, ex Exchanger, query *dnswire.Message, dst netip.Addr, attempts int) (*dnswire.Message, time.Duration, error) {
	return ExchangeRetryBackoff(ctx, ex, query, dst, attempts, DefaultBackoff())
}

// ExchangeRetryBackoff is ExchangeRetry with an explicit backoff schedule;
// the zero Backoff retransmits immediately. Event-capable transports (the
// simulated Conn) run the whole schedule as an event chain — on the
// calling process's world, or on a private pooled scheduler driven to
// completion; other Exchangers fall back to the blocking loop.
//
//cdelint:hotpath
func ExchangeRetryBackoff(ctx context.Context, ex Exchanger, query *dnswire.Message, dst netip.Addr, attempts int, bo Backoff) (*dnswire.Message, time.Duration, error) {
	if attempts < 1 {
		attempts = 1
	}
	if eex, ok := ex.(EventExchanger); ok {
		// A goroutine driven by a des.Process (a RunSequenced workload)
		// runs the whole schedule on its world's event loops instead of a
		// private scheduler, parking until the chain settles.
		if p := processFrom(ctx); p != nil {
			return exchangeRetryProcess(ctx, p, eex, query, dst, attempts, bo)
		}
		sched := schedPool.Get().(*des.Scheduler)
		rs := getRetryState()
		initRetryState(rs, sched, eex, ctx, query, dst, attempts, bo)
		sched.Schedule(0, rs, 0)
		sched.Run()
		resp, total, err := rs.resp, rs.total, rs.err
		putRetryState(rs)
		sched.Reset()
		schedPool.Put(sched)
		return resp, total, err
	}
	return exchangeRetryBlocking(ctx, ex, query, dst, attempts, bo)
}

// ExchangeRetryEvent runs a full retransmission schedule asynchronously.
// The schedule launches at the current instant on ex's own lane of
// sched's universe — a Conn's source-address lane, the lane a process's
// ExchangeRetry picks — so every draw from the source's RNG stream stays
// on one event loop. done fires on that lane at the simulated time the
// schedule settles (success, non-timeout error, cancellation or
// exhaustion), with the cumulative duration across attempts and backoff
// waits. Only the goroutine running sched may call it.
//
//cdelint:hotpath
func ExchangeRetryEvent(ctx context.Context, sched *des.Scheduler, ex EventExchanger, query *dnswire.Message, dst netip.Addr, attempts int, bo Backoff, done func(*dnswire.Message, time.Duration, error)) {
	if attempts < 1 {
		attempts = 1
	}
	lane := sourceLane(sched, ex)
	rs := getRetryState()
	initRetryState(rs, sched.LaneScheduler(lane), ex, ctx, query, dst, attempts, bo)
	rs.done = done
	sched.SendTo(lane, sched.Now(), rs, 0)
}

// laneKeyer is implemented by transports that know which sharded lane
// their exchanges should launch on (the simulated Conn keys on its bound
// source address, keeping each source's work on one event loop).
type laneKeyer interface {
	LaneKey() uint64
}

// sourceLane returns the lane ex's exchanges launch on: the lane its
// LaneKey partitions to, or lane 0 for transports without one.
//
//cdelint:hotpath
func sourceLane(u interface{ LaneFor(uint64) int }, ex EventExchanger) int {
	if lk, ok := ex.(laneKeyer); ok {
		return u.LaneFor(lk.LaneKey())
	}
	return 0
}

// procWait is the pooled rendezvous between a parked process goroutine
// and the retry chain settling on a lane: deliver stores the outcome and
// resumes the process. The bound method value is created once per pooled
// record, so the bridge allocates nothing in steady state.
type procWait struct {
	p     *des.Process
	resp  *dnswire.Message
	total time.Duration
	err   error

	deliverFn func(*dnswire.Message, time.Duration, error)
}

var procWaitPool = sync.Pool{New: func() any { return new(procWait) }}

//cdelint:hotpath
func getProcWait() *procWait {
	w := procWaitPool.Get().(*procWait)
	if w.deliverFn == nil {
		//cdelint:allow hotalloc the bound method value is created once per pooled record, then reused
		w.deliverFn = w.deliver
	}
	return w
}

// deliver runs on the process's home lane, inside the event that settled
// the retry schedule.
//
//cdelint:hotpath
func (w *procWait) deliver(resp *dnswire.Message, total time.Duration, err error) {
	w.resp, w.total, w.err = resp, total, err
	w.p.Resume()
}

// exchangeRetryProcess runs a retransmission schedule on the sharded
// universe driving the calling goroutine: the retryState is injected on
// the source's lane, the goroutine parks, and the chain's events — which
// may hop lanes for delivery — resume it at the simulated completion
// time. The process is stripped from the context here, once, so handler
// code downstream (which runs on lane goroutines) can never inherit it
// and deadlock a lane by parking it.
//
//cdelint:hotpath
func exchangeRetryProcess(ctx context.Context, p *des.Process, ex EventExchanger, query *dnswire.Message, dst netip.Addr, attempts int, bo Backoff) (*dnswire.Message, time.Duration, error) {
	cctx := ClearProcess(ctx)
	lane := sourceLane(p, ex)
	w := getProcWait()
	w.p = p
	rs := getRetryState()
	initRetryState(rs, p.LaneScheduler(lane), ex, cctx, query, dst, attempts, bo)
	rs.done = w.deliverFn
	p.Await(lane, rs, 0)
	resp, total, err := w.resp, w.total, w.err
	w.p = nil
	w.resp = nil
	w.err = nil
	w.total = 0
	procWaitPool.Put(w)
	return resp, total, err
}

// exchangeRetryBlocking is the legacy loop for transports without an
// event-chain form (the real-socket udpnet exchanger).
func exchangeRetryBlocking(ctx context.Context, ex Exchanger, query *dnswire.Message, dst netip.Addr, attempts int, bo Backoff) (*dnswire.Message, time.Duration, error) {
	var retries *metrics.Counter
	if ra, ok := ex.(retryAccounter); ok {
		retries = ra.retryCounter()
	}
	seed := retrySeed(query, dst)
	var total time.Duration
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, total, cerr
			}
			retries.Inc()
			total += bo.Wait(seed, i)
		}
		resp, rtt, err := ex.Exchange(ctx, query, dst)
		total += rtt
		if err == nil {
			return resp, total, nil
		}
		lastErr = err
		if !errors.Is(err, ErrTimeout) {
			return nil, total, err
		}
	}
	return nil, total, lastErr
}
