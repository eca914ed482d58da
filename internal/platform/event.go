package platform

import (
	"context"
	"fmt"
	"net/netip"
	"sync"

	"dnscde/internal/dnscache"
	"dnscde/internal/dnswire"
	"dnscde/internal/netsim"
	"dnscde/internal/netsim/des"
	"dnscde/internal/trace"
)

// Ingress pipeline opcodes: the platform serves every query as an event
// chain on the lane that delivered it — the ingress pipeline of Fig. 1.
// opIngress runs the front-of-house checks and the load-balancer sample;
// opCacheLookup samples the one cache, answering hits (after
// CacheHitDelay of simulated time, via opRespond) and starting the
// resolution of misses; opResume hands each upstream answer of that
// resolution back to the delivering lane (resolve.go).
const (
	opIngress uint8 = iota
	opCacheLookup
	opResume
	opRespond
)

// queryEv is the pooled per-query actor carrying one ingress pipeline
// through its stages, including the continuation state of a miss's
// resolution.
type queryEv struct {
	p       *Platform
	ingress netip.Addr
	sched   *des.Scheduler
	lane    int
	ctx     context.Context
	src     netip.Addr
	query   *dnswire.Message
	r       netsim.Responder

	q        dnswire.Question
	resp     *dnswire.Message
	cache    *dnscache.Cache
	cacheIdx int
	err      error

	resolution
}

var _ des.Actor = (*queryEv)(nil)

var _ netsim.EventHandler = (*front)(nil)

var queryEvPool = sync.Pool{New: func() any { return new(queryEv) }}

// ServeDNSEvent implements netsim.EventHandler for one ingress IP.
func (f *front) ServeDNSEvent(ctx context.Context, sched *des.Scheduler, src netip.Addr, query *dnswire.Message, r netsim.Responder) {
	qe := queryEvPool.Get().(*queryEv)
	if qe.onUpstreamFn == nil {
		// The bound method value is created once per pooled record and
		// survives recycling, so upstream queries allocate no closure.
		qe.onUpstreamFn = qe.onUpstream
	}
	qe.p = f.p
	qe.ingress = f.ingress
	qe.sched = sched
	qe.lane = sched.LaneIndex()
	qe.ctx = ctx
	qe.src = src
	qe.query = query
	qe.r = r
	sched.Schedule(0, qe, opIngress)
}

// Fire dispatches one pipeline stage and, once the query has settled,
// delivers the response.
func (qe *queryEv) Fire(now des.Time, op uint8) {
	if qe.step(op) {
		qe.respond(now)
	}
}

// step runs one stage and reports whether the query has settled. It is
// the platform's panic boundary: a panic in a stage or in the resolution
// settles the query with an error, which the client's exchange receives
// as a handler failure, instead of killing the event loop.
func (qe *queryEv) step(op uint8) (settled bool) {
	defer func() {
		if r := recover(); r != nil {
			qe.resp, qe.err = nil, fmt.Errorf("platform: panic: %v", r)
			settled = true
		}
	}()
	switch op {
	case opIngress:
		return qe.stageIngress()
	case opCacheLookup:
		return qe.stageCacheLookup()
	case opResume:
		return qe.resume()
	case opRespond:
		return true
	}
	return false
}

// respond delivers the terminal response (or error) and recycles the
// record.
func (qe *queryEv) respond(now des.Time) {
	r, resp, err := qe.r, qe.resp, qe.err
	fn := qe.onUpstreamFn
	*qe = queryEv{}
	qe.onUpstreamFn = fn
	queryEvPool.Put(qe)
	r.Respond(now, resp, err)
}

// stageIngress is the front of house: question parse, query accounting,
// refusal policy and the load-balancer sample.
func (qe *queryEv) stageIngress() bool {
	p := qe.p
	q, err := qe.query.FirstQuestion()
	if err != nil {
		resp := dnswire.NewResponse(qe.query)
		resp.Header.RCode = dnswire.RCodeFormErr
		qe.resp = resp
		return true
	}
	qe.q = q
	p.mQueries.Inc()

	resp := dnswire.NewResponse(qe.query)
	resp.Header.RecursionAvailable = true
	qe.resp = resp

	if !p.allowed(q.Name) {
		p.mRefused.Inc()
		resp.Header.RCode = dnswire.RCodeRefused
		return true
	}

	// Load balancer: sample exactly one cache from the ingress IP's
	// cluster (§IV-A). The selector indexes within the cluster so that,
	// e.g., round robin cycles over the cluster's caches.
	cluster := p.clusterFor(qe.ingress)
	if len(cluster) == 0 {
		// Every cache behind this ingress IP is down.
		p.mUpstreamFail.Inc()
		resp.Header.RCode = dnswire.RCodeServFail
		return true
	}
	pos := p.cfg.Selector.Select(q, qe.src, len(cluster))
	qe.cacheIdx = cluster[pos]
	qe.cache = p.caches[qe.cacheIdx]
	trace.Addf(qe.ctx, "lb", "%s selected cache %d of %d for %s", p.cfg.Selector.Name(), qe.cacheIdx, len(cluster), q)

	qe.sched.Schedule(0, qe, opCacheLookup)
	return false
}

// stageCacheLookup samples the one selected cache. Hits answer after
// CacheHitDelay of simulated time; a miss starts the egress resolver,
// whose result is stored in the sampled cache only.
func (qe *queryEv) stageCacheLookup() bool {
	p := qe.p
	if entry, ok := qe.cache.Get(qe.q, p.cfg.Clock.Now()); ok {
		p.mCacheHits.Inc()
		trace.Addf(qe.ctx, "cache-hit", "%s answered %s", qe.cache.ID, qe.q)
		qe.resp = p.entryToResponse(qe.resp, entry)
		if p.cfg.CacheHitDelay > 0 {
			qe.sched.Schedule(p.cfg.CacheHitDelay, qe, opRespond)
			return false
		}
		return true
	}
	p.mCacheMisses.Inc()
	trace.Addf(qe.ctx, "cache-miss", "%s lacks %s", qe.cache.ID, qe.q)
	return qe.resolve(qe.q)
}

// resolved takes the result of one resolution: the client's question or,
// for platforms configured with QueryAAAA, its AAAA follow-up.
func (qe *queryEv) resolved(e dnscache.Entry, err error) bool {
	p := qe.p
	if qe.followUp {
		if err == nil {
			qe.cache.Put(qe.target, e, p.cfg.Clock.Now())
		}
		qe.resp = p.entryToResponse(qe.resp, qe.entry)
		return true
	}
	if err != nil {
		p.mUpstreamFail.Inc()
		qe.resp.Header.RCode = dnswire.RCodeServFail
		return true
	}
	qe.cache.Put(qe.q, e, p.cfg.Clock.Now())

	// Windows-style follow-up: prefetch the AAAA record for names just
	// resolved under A (observable at the nameserver as an A→AAAA query
	// pattern — a §VI software fingerprint).
	if p.cfg.QueryAAAA && qe.q.Type == dnswire.TypeA {
		followUp := dnswire.Question{Name: qe.q.Name, Type: dnswire.TypeAAAA, Class: qe.q.Class}
		if _, ok := qe.cache.Get(followUp, p.cfg.Clock.Now()); !ok {
			qe.followUp = true
			qe.entry = e
			return qe.resolve(followUp)
		}
	}
	qe.resp = p.entryToResponse(qe.resp, e)
	return true
}
