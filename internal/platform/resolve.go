package platform

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"dnscde/internal/dnscache"
	"dnscde/internal/dnswire"
	"dnscde/internal/netsim"
	"dnscde/internal/trace"
)

// Resolution errors.
var (
	ErrChaseLimit       = errors.New("platform: CNAME chase limit exceeded")
	ErrReferralLimit    = errors.New("platform: referral depth limit exceeded")
	ErrAllServersFailed = errors.New("platform: all upstream servers failed")
	ErrGluelessLoop     = errors.New("platform: glueless delegation recursion limit")
)

// _queryID generates message IDs for upstream queries.
var _queryID atomic.Uint32

func nextID() uint16 { return uint16(_queryID.Add(1)) }

// Resolution bounds: nested resolutions for NS hosts without glue,
// delegation depth per lookup, and attempts per upstream exchange (two
// retries on timeout).
const (
	maxGluelessDepth = 3
	maxReferrals     = 16
	upstreamAttempts = 3
)

// resolution is the continuation state of one cache miss: the egress
// resolver's recursive resolution of a question on behalf of the sampled
// cache, chasing CNAMEs and caching every record it learns (final
// answers, intermediate CNAMEs, delegations and glue) into that one cache
// — the property the paper's names-hierarchy technique (§IV-B2b)
// observes. Forwarding platforms delegate the recursion to their upstream
// instead.
//
// The resolution never blocks. Each upstream query launches as a retry
// schedule on its egress source's lane (netsim.ExchangeRetryEvent) and
// the answer resumes the resolution on the delivering lane (opResume), so
// every per-source RNG draw happens in causal chain order. The iterative
// descent is a stack of frames: a glueless delegation resolves its NS
// hosts' addresses in a child frame, at most maxGluelessDepth deep.
type resolution struct {
	// followUp marks the AAAA follow-up; entry then holds the client
	// question's answer until the follow-up settles.
	followUp bool
	entry    dnscache.Entry
	// target is the question the current resolution answers.
	target dnswire.Question

	// Forwarder mode: the forwarder being asked and the last failure.
	fwd    int
	fwdErr error

	// Iterative mode: the frame stack, frames[:nframes].
	frames  [maxGluelessDepth + 1]frame
	nframes int

	// The upstream query in flight: the lane its schedule settles on,
	// and its outcome, carried to the delivering lane by opResume.
	upLane       int
	upResp       *dnswire.Message
	upErr        error
	onUpstreamFn func(*dnswire.Message, time.Duration, error)
}

// frame is one activation of the iterative resolver: the CNAME chase for
// one question at one glueless depth (its index in the stack), the
// referral descent for the current chase hop, the server loop for the
// current referral step and, on a glueless delegation, the loop over the
// NS hosts resolved in child frames.
type frame struct {
	q       dnswire.Question
	chain   []dnswire.RR
	name    string
	visited map[string]bool
	hop     int
	cur     dnswire.Question

	servers []netip.Addr
	ref     int
	srv     int
	lastErr error

	nsSet []dnswire.RR
	ns    int
}

// resolve starts resolving q. Each step returns whether the query has
// settled; a step that launched an upstream query returns false and the
// resolution continues in resume.
func (qe *queryEv) resolve(q dnswire.Question) bool {
	qe.p.mRecursions.Inc()
	qe.target = q
	if len(qe.p.cfg.Forwarders) > 0 {
		qe.fwd, qe.fwdErr = 0, nil
		return qe.forwardNext()
	}
	qe.nframes = 0
	return qe.pushFrame(q)
}

// ask launches one upstream query from egress to server; its answer
// arrives in onUpstream.
func (qe *queryEv) ask(egress netip.Addr, query *dnswire.Message, server netip.Addr) {
	conn := qe.p.net.Bind(egress)
	qe.upLane = qe.sched.LaneFor(conn.LaneKey())
	netsim.ExchangeRetryEvent(qe.ctx, qe.sched, conn, query, server, upstreamAttempts, netsim.DefaultBackoff(), qe.onUpstreamFn)
}

// onUpstream receives an upstream outcome on the egress source's lane and
// hands it to the delivering lane at the same simulated instant.
func (qe *queryEv) onUpstream(resp *dnswire.Message, _ time.Duration, err error) {
	qe.upResp, qe.upErr = resp, err
	es := qe.sched.LaneScheduler(qe.upLane)
	es.SendTo(qe.lane, es.Now(), qe, opResume)
}

// resume continues the resolution with the upstream outcome.
func (qe *queryEv) resume() bool {
	resp, err := qe.upResp, qe.upErr
	qe.upResp, qe.upErr = nil, nil
	if len(qe.p.cfg.Forwarders) > 0 {
		return qe.forwardAnswer(resp, err)
	}
	return qe.askAnswer(&qe.frames[qe.nframes-1], resp, err)
}

// forwardNext sends the target as a recursive query to the next upstream
// resolver — the forwarder configuration of §VI. The upstream performs
// all iterative work (and its own caching); only the final answer lands
// in this platform's selected cache.
func (qe *queryEv) forwardNext() bool {
	p := qe.p
	if qe.fwd >= len(p.cfg.Forwarders) {
		return qe.resolved(dnscache.Entry{}, fmt.Errorf("%w: %w", ErrAllServersFailed, qe.fwdErr))
	}
	upstream := p.cfg.Forwarders[qe.fwd]
	egress := p.pickEgress(qe.cacheIdx)
	query := dnswire.NewQuery(nextID(), qe.target.Name, qe.target.Type) // RD set
	p.maybeAddEDNS(query)
	if t := trace.From(qe.ctx); t != nil {
		t.Add("forward", "egress %v forwards %s to %v", egress, qe.target, upstream)
	}
	qe.ask(egress, query, upstream)
	return false
}

// forwardAnswer takes one forwarder's outcome.
func (qe *queryEv) forwardAnswer(resp *dnswire.Message, err error) bool {
	upstream := qe.p.cfg.Forwarders[qe.fwd]
	qe.fwd++
	if err != nil {
		qe.fwdErr = err
		return qe.forwardNext()
	}
	if resp.Header.RCode == dnswire.RCodeServFail || resp.Header.RCode == dnswire.RCodeRefused {
		qe.fwdErr = fmt.Errorf("platform: forwarder %v returned %v", upstream, resp.Header.RCode)
		return qe.forwardNext()
	}
	return qe.resolved(dnscache.Entry{
		Records:   resp.Answer,
		RCode:     resp.Header.RCode,
		Authority: resp.Authority,
	}, nil)
}

// pushFrame opens a frame for q one glueless level below the current top.
func (qe *queryEv) pushFrame(q dnswire.Question) bool {
	f := &qe.frames[qe.nframes]
	qe.nframes++
	*f = frame{q: q, name: q.Name, visited: map[string]bool{q.Name: true}}
	return qe.chaseHop(f)
}

// popFrame closes the top frame with its result, handing it to the
// parent's NS-host loop or, for the bottom frame, to the pipeline.
func (qe *queryEv) popFrame(e dnscache.Entry, err error) bool {
	qe.nframes--
	if qe.nframes == 0 {
		return qe.resolved(e, err)
	}
	return qe.gluelessAnswer(&qe.frames[qe.nframes-1], e, err)
}

// chaseHop starts hop f.hop of the CNAME chase: a cached answer for a
// chased target ends the frame; otherwise the current name is resolved
// iteratively from the deepest cached delegation (or the roots).
func (qe *queryEv) chaseHop(f *frame) bool {
	p := qe.p
	if f.hop > p.cfg.MaxCNAMEChase {
		return qe.popFrame(dnscache.Entry{}, ErrChaseLimit)
	}
	f.cur = dnswire.Question{Name: f.name, Type: f.q.Type, Class: f.q.Class}
	if f.hop > 0 {
		// The original name was already checked by the ingress pipeline;
		// chased targets may be cached from earlier probes.
		if e, ok := qe.cache.Get(f.cur, p.cfg.Clock.Now()); ok {
			return qe.popFrame(mergeChain(f.chain, e), nil)
		}
	}
	f.servers = p.startingServers(qe.cache, f.cur.Name)
	f.ref = 0
	return qe.descend(f)
}

// descend takes one referral step: ask the current servers in order.
func (qe *queryEv) descend(f *frame) bool {
	if f.ref >= maxReferrals {
		return qe.iterated(f, iterOut{}, ErrReferralLimit)
	}
	if len(f.servers) == 0 {
		return qe.iterated(f, iterOut{}, ErrAllServersFailed)
	}
	f.srv, f.lastErr = 0, nil
	return qe.askNext(f)
}

// askNext asks the next server of the current referral step, each with
// the configured retry budget and a fresh egress IP.
func (qe *queryEv) askNext(f *frame) bool {
	if f.srv >= len(f.servers) {
		return qe.iterated(f, iterOut{}, fmt.Errorf("%w: %w", ErrAllServersFailed, f.lastErr))
	}
	p := qe.p
	server := f.servers[f.srv]
	egress := p.pickEgress(qe.cacheIdx)
	query := dnswire.NewQuery(nextID(), f.cur.Name, f.cur.Type)
	query.Header.RecursionDesired = false
	p.maybeAddEDNS(query)
	if t := trace.From(qe.ctx); t != nil {
		t.Add("upstream", "egress %v asks %v for %s", egress, server, f.cur)
	}
	qe.ask(egress, query, server)
	return false
}

// askAnswer interprets one server's outcome: a failure moves on to the
// next server; an answer, NXDOMAIN or NODATA ends the descent; a
// referral descends a level.
func (qe *queryEv) askAnswer(f *frame, resp *dnswire.Message, err error) bool {
	server := f.servers[f.srv]
	f.srv++
	if err != nil {
		f.lastErr = err
		return qe.askNext(f)
	}
	if resp.Header.RCode == dnswire.RCodeRefused || resp.Header.RCode == dnswire.RCodeServFail {
		f.lastErr = fmt.Errorf("platform: upstream %v returned %v", server, resp.Header.RCode)
		return qe.askNext(f)
	}

	switch {
	case resp.Header.RCode == dnswire.RCodeNXDomain:
		return qe.iterated(f, iterOut{entry: dnscache.Entry{
			RCode:     dnswire.RCodeNXDomain,
			Authority: resp.Authority,
		}}, nil)

	case len(resp.Answer) > 0:
		out, err := qe.p.interpretAnswer(f.cur, resp)
		return qe.iterated(f, out, err)

	case hasNS(resp.Authority):
		return qe.followReferral(f, resp)

	default:
		// NOERROR with no answer and no referral: NODATA.
		return qe.iterated(f, iterOut{entry: dnscache.Entry{
			RCode:     dnswire.RCodeNoError,
			Authority: resp.Authority,
		}}, nil)
	}
}

// iterated takes the end of one hop's descent: a CNAME redirection
// continues the chase, anything else closes the frame.
func (qe *queryEv) iterated(f *frame, out iterOut, err error) bool {
	if err != nil {
		return qe.popFrame(dnscache.Entry{}, err)
	}
	now := qe.p.cfg.Clock.Now()
	if out.cname != "" {
		if t := trace.From(qe.ctx); t != nil {
			t.Add("cname", "%s is an alias for %s", f.name, out.cname)
		}
		f.chain = append(f.chain, out.chainRRs...)
		// Cache the alias under its own name and type so later
		// resolutions of the same alias skip the upstream query.
		qe.cache.Put(f.cur, dnscache.Entry{Records: out.chainRRs}, now)
		if f.visited[out.cname] {
			return qe.popFrame(dnscache.Entry{}, ErrChaseLimit) // CNAME loop
		}
		f.visited[out.cname] = true
		f.name = out.cname
		f.hop++
		return qe.chaseHop(f)
	}
	if f.hop > 0 {
		// Terminal data for a chased target: cache it under the target's
		// question; the caller caches the full chain under the original
		// question.
		qe.cache.Put(f.cur, out.entry, now)
	}
	return qe.popFrame(mergeChain(f.chain, out.entry), nil)
}

// mergeChain prepends accumulated CNAME records to a terminal entry.
func mergeChain(chain []dnswire.RR, e dnscache.Entry) dnscache.Entry {
	if len(chain) == 0 {
		return e
	}
	merged := dnscache.Entry{RCode: e.RCode, Authority: e.Authority}
	merged.Records = append(merged.Records, chain...)
	merged.Records = append(merged.Records, e.Records...)
	return merged
}

// iterOut is one step of iterative resolution: either a terminal entry or
// a CNAME redirection.
type iterOut struct {
	entry    dnscache.Entry
	cname    string       // non-empty: caller must chase
	chainRRs []dnswire.RR // the CNAME records leading to cname
}

// interpretAnswer extracts the relevant records for q from a response's
// answer section.
func (p *Platform) interpretAnswer(q dnswire.Question, resp *dnswire.Message) (iterOut, error) {
	// Direct records of the requested type win.
	direct := recordsFor(resp.Answer, q.Name, q.Type)
	if len(direct) > 0 {
		return iterOut{entry: dnscache.Entry{Records: direct}}, nil
	}
	cnames := recordsFor(resp.Answer, q.Name, dnswire.TypeCNAME)
	if len(cnames) == 0 {
		// Answer section holds nothing usable for this question.
		return iterOut{entry: dnscache.Entry{RCode: dnswire.RCodeNoError, Authority: resp.Authority}}, nil
	}
	first := cnames[0]
	target := dnswire.CanonicalName(first.Data.(dnswire.CNAMERecord).Target)

	if !p.cfg.TrustAnswerChains {
		// Hardened behaviour: accept only the alias itself and re-query
		// the target — the behaviour §IV-B2a relies on.
		return iterOut{cname: target, chainRRs: []dnswire.RR{first}}, nil
	}

	// BIND-style: walk the chain the authoritative server appended.
	chain := []dnswire.RR{first}
	seen := map[string]bool{q.Name: true}
	for hops := 0; hops < p.cfg.MaxCNAMEChase; hops++ {
		if seen[target] {
			return iterOut{}, ErrChaseLimit
		}
		seen[target] = true
		if finals := recordsFor(resp.Answer, target, q.Type); len(finals) > 0 {
			return iterOut{entry: dnscache.Entry{Records: append(chain, finals...)}}, nil
		}
		next := recordsFor(resp.Answer, target, dnswire.TypeCNAME)
		if len(next) == 0 {
			// Chain leaves the response; chase the tail ourselves.
			return iterOut{cname: target, chainRRs: chain}, nil
		}
		chain = append(chain, next[0])
		target = dnswire.CanonicalName(next[0].Data.(dnswire.CNAMERecord).Target)
	}
	return iterOut{}, ErrChaseLimit
}

// followReferral caches the delegation carried by resp and descends to
// the child zone's nameservers, resolving glueless NS hosts' addresses in
// child frames when needed.
func (qe *queryEv) followReferral(f *frame, resp *dnswire.Message) bool {
	cache := qe.cache
	now := qe.p.cfg.Clock.Now()

	nsSet := filterType(resp.Authority, dnswire.TypeNS)
	cut := dnswire.CanonicalName(nsSet[0].Name)
	if t := trace.From(qe.ctx); t != nil {
		t.Add("referral", "delegation to %s (%d NS, %d glue)", cut, len(nsSet), len(resp.Additional))
	}
	cache.Put(dnswire.Question{Name: cut, Type: dnswire.TypeNS, Class: dnswire.ClassIN},
		dnscache.Entry{Records: nsSet}, now)

	var addrs []netip.Addr
	for _, glue := range resp.Additional {
		a, ok := glue.Data.(dnswire.ARecord)
		if !ok {
			continue
		}
		addrs = append(addrs, a.Addr)
		cache.Put(dnswire.Question{Name: dnswire.CanonicalName(glue.Name), Type: dnswire.TypeA, Class: dnswire.ClassIN},
			dnscache.Entry{Records: []dnswire.RR{glue}}, now)
	}
	if len(addrs) > 0 {
		return qe.referTo(f, addrs)
	}

	// Glueless delegation: resolve the NS hosts' addresses ourselves.
	if qe.nframes-1 >= maxGluelessDepth {
		return qe.iterated(f, iterOut{}, ErrGluelessLoop)
	}
	f.nsSet, f.ns = nsSet, 0
	return qe.gluelessNext(f)
}

// referTo descends one referral level to servers.
func (qe *queryEv) referTo(f *frame, servers []netip.Addr) bool {
	f.servers = servers
	f.ref++
	return qe.descend(f)
}

// gluelessNext resolves the next NS host's address in a child frame.
func (qe *queryEv) gluelessNext(f *frame) bool {
	if f.ns >= len(f.nsSet) {
		return qe.iterated(f, iterOut{}, ErrAllServersFailed)
	}
	host := dnswire.CanonicalName(f.nsSet[f.ns].Data.(dnswire.NSRecord).Host)
	f.ns++
	return qe.pushFrame(dnswire.Question{Name: host, Type: dnswire.TypeA, Class: dnswire.ClassIN})
}

// gluelessAnswer takes a child frame's result for one NS host: the first
// host that resolves to addresses ends the loop.
func (qe *queryEv) gluelessAnswer(f *frame, e dnscache.Entry, err error) bool {
	if err != nil {
		return qe.gluelessNext(f)
	}
	var addrs []netip.Addr
	for _, rr := range e.Records {
		if a, ok := rr.Data.(dnswire.ARecord); ok {
			addrs = append(addrs, a.Addr)
		}
	}
	if len(addrs) > 0 {
		return qe.referTo(f, addrs)
	}
	return qe.gluelessNext(f)
}

// maybeAddEDNS attaches an EDNS0 OPT pseudo-record to an upstream query
// when the platform is configured for it.
func (p *Platform) maybeAddEDNS(query *dnswire.Message) {
	if !p.cfg.EDNS {
		return
	}
	query.Additional = append(query.Additional, dnswire.RR{
		Name:  ".",
		Class: dnswire.Class(dnswire.MaxEDNSSize),
		Data:  dnswire.OPTRecord{UDPSize: dnswire.MaxEDNSSize},
	})
}

// startingServers finds the deepest delegation cached for name — the
// mechanism that makes §IV-B2b observable: a cache holding the
// sub.cache.example delegation asks the child directly, while a fresh
// cache must visit the parent.
func (p *Platform) startingServers(cache *dnscache.Cache, name string) []netip.Addr {
	labels := dnswire.SplitLabels(name)
	now := p.cfg.Clock.Now()
	for i := 0; i < len(labels); i++ {
		zoneName := strings.Join(labels[i:], ".") + "."
		nsEntry, ok := cache.Get(dnswire.Question{Name: zoneName, Type: dnswire.TypeNS, Class: dnswire.ClassIN}, now)
		if !ok {
			continue
		}
		var addrs []netip.Addr
		for _, ns := range nsEntry.Records {
			nsr, ok := ns.Data.(dnswire.NSRecord)
			if !ok {
				continue
			}
			host := dnswire.CanonicalName(nsr.Host)
			if aEntry, ok := cache.Get(dnswire.Question{Name: host, Type: dnswire.TypeA, Class: dnswire.ClassIN}, now); ok {
				for _, rr := range aEntry.Records {
					if a, ok := rr.Data.(dnswire.ARecord); ok {
						addrs = append(addrs, a.Addr)
					}
				}
			}
		}
		if len(addrs) > 0 {
			return addrs
		}
	}
	return append([]netip.Addr(nil), p.cfg.Roots...)
}

// recordsFor selects records owned by name with the given type.
func recordsFor(rrs []dnswire.RR, name string, t dnswire.Type) []dnswire.RR {
	name = dnswire.CanonicalName(name)
	var out []dnswire.RR
	for _, rr := range rrs {
		if rr.Type() == t && dnswire.CanonicalName(rr.Name) == name {
			out = append(out, rr)
		}
	}
	return out
}

// filterType selects records of type t.
func filterType(rrs []dnswire.RR, t dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range rrs {
		if rr.Type() == t {
			out = append(out, rr)
		}
	}
	return out
}

// hasNS reports whether rrs contains an NS record.
func hasNS(rrs []dnswire.RR) bool {
	return len(filterType(rrs, dnswire.TypeNS)) > 0
}
