// Package netsim provides the simulated Internet over which the CDE
// reproduction runs: hosts keyed by IP address, per-host latency profiles,
// per-host Bernoulli packet loss, and an Exchanger abstraction that the
// probers, resolution platforms and authoritative nameservers all use.
//
// Every simulated exchange round-trips through the real DNS wire codec
// (dnswire.Pack / dnswire.Unpack), so the simulation exercises exactly the
// bytes a real deployment would emit. The same Exchanger interface is
// implemented over real UDP sockets by package udpnet, which is how the
// library doubles as a live measurement tool.
//
// The transmission core is a discrete-event scheduler (internal/netsim/des):
// each exchange is a chain of events — launch, delivery, completion — on
// a des.Scheduler, so a single event loop can carry millions of
// concurrent stub clients. Every host serves as an EventHandler on the
// scheduler that delivered the query; a handler never blocks. Conn.Exchange
// remains a blocking top-level entry point (it drives a pooled private
// scheduler to completion); Conn.ExchangeEvent exposes the asynchronous
// chain for callers that multiplex many exchanges on one scheduler. See
// DESIGN.md §10.
package netsim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnscde/internal/detpar"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim/des"
	"dnscde/internal/trace"
)

// Simulation errors.
var (
	// ErrTimeout reports a lost query or lost response; the paper's §V
	// carpet-bombing technique exists to tolerate exactly this.
	ErrTimeout = errors.New("netsim: query timed out (packet loss)")
	// ErrNoRoute reports a destination IP with no registered host.
	ErrNoRoute = errors.New("netsim: no host at destination address")
	// ErrMalformed reports a message that failed wire encoding or decoding.
	ErrMalformed = errors.New("netsim: malformed message")
)

// Handler processes one DNS query and returns the response in one blocking
// call. It is the contract of the real-socket servers (package udpnet);
// hosts on the simulated network register an EventHandler instead.
type Handler interface {
	ServeDNS(ctx context.Context, src netip.Addr, query *dnswire.Message) (*dnswire.Message, error)
}

// HandlerFunc adapts a function to both handler contracts. As an
// EventHandler it answers inline and responds at the delivery instant, so
// it adds no event and charges no handler time.
type HandlerFunc func(ctx context.Context, src netip.Addr, query *dnswire.Message) (*dnswire.Message, error)

var (
	_ Handler      = HandlerFunc(nil)
	_ EventHandler = HandlerFunc(nil)
)

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(ctx context.Context, src netip.Addr, query *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, src, query)
}

// ServeDNSEvent implements EventHandler: the function runs inside the
// delivery event, behind a panic boundary, and its response leaves at
// the same simulated instant.
func (f HandlerFunc) ServeDNSEvent(ctx context.Context, sched *des.Scheduler, src netip.Addr, query *dnswire.Message, r Responder) {
	resp, err := safeServe(f, ctx, src, query)
	r.Respond(sched.Now(), resp, err)
}

// LinkProfile describes the network path characteristics of one host.
type LinkProfile struct {
	// OneWay is the base one-way delay between this host and the
	// simulated backbone.
	OneWay time.Duration
	// Jitter is the maximum uniform random extra delay added per
	// direction.
	Jitter time.Duration
	// Loss is the probability in [0,1] that a single packet to or from
	// this host is dropped. The paper measured ~11% in Iran, ~4% in China
	// and ~1% elsewhere.
	Loss float64
	// Faults, when non-nil, layers deterministic fault injection on the
	// link: Gilbert–Elliott burst loss (replacing Loss), injected
	// SERVFAIL/REFUSED, truncation, duplication, late responses and
	// scheduled outages. See FaultProfile. A pointer keeps LinkProfile
	// comparable with ==.
	Faults *FaultProfile
}

// DefaultLinkProfile matches the paper's "typical" network: ~1% loss and a
// modest regional delay.
func DefaultLinkProfile() LinkProfile {
	return LinkProfile{OneWay: 10 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.01}
}

type host struct {
	handler EventHandler
	profile LinkProfile
	// down marks a transient outage toggled by SetDown; queries to a down
	// host vanish (client times out). Atomic so the hot path reads it
	// without holding any lock.
	down atomic.Bool
}

// netConfig is the network's immutable configuration snapshot: timeout,
// client-side profile and pre-created metric handles. Writers (SetMetrics,
// SetTimeout, SetClientProfile) copy-mutate-store a fresh pointer under
// Network.mu; the exchange hot path loads it once per exchange with a
// single atomic read and never touches a mutex.
type netConfig struct {
	// timeout is the simulated time charged for a lost packet, mirroring
	// a resolver's retransmission timer.
	timeout time.Duration

	// clientProfile is the link profile applied to source addresses with
	// no registered host (probers Bind arbitrary client addresses). It
	// defaults to the zero profile — a perfect local link — and is
	// settable via SetClientProfile.
	clientProfile LinkProfile

	// metrics, when non-nil, is the accounting registry every packet and
	// fault event is counted in — the network keeps no other counters.
	// The handles are bound in SetMetrics so the hot path pays one nil
	// check per event; nil handles are no-ops.
	metrics     *metrics.Registry
	mSent       *metrics.Counter
	mRecvd      *metrics.Counter
	mLost       *metrics.Counter
	mRetries    *metrics.Counter
	mServFail   *metrics.Counter
	mRefused    *metrics.Counter
	mTruncated  *metrics.Counter
	mDuplicated *metrics.Counter
	mLate       *metrics.Counter
	mOutage     *metrics.Counter
}

// Network is a simulated Internet. The zero value is not usable; use New.
// Network is safe for concurrent use.
type Network struct {
	// mu serialises configuration writers; the exchange path never takes
	// it (hosts and config are read via atomic pointer) except for the
	// one-off host-view rebuild after a registration change.
	mu    sync.Mutex
	hosts sync.Map // netip.Addr -> *host
	// hostsView caches an immutable snapshot of hosts for the exchange
	// path: sync.Map.Load boxes the 24-byte netip.Addr key into an
	// interface on every call, while a plain map read allocates nothing.
	// Register/Unregister invalidate the view (store nil) under mu; the
	// next lookup rebuilds it, also under mu, so a rebuild can never
	// overwrite a newer invalidation with a stale snapshot.
	hostsView atomic.Pointer[map[netip.Addr]*host]

	// seed derives the per-source-address RNG streams. Loss and jitter
	// draws for an exchange come from the RNG of its *source* address
	// (see srcRand), so concurrent exchanges from different sources never
	// contend on — or scheduling-dependently interleave — one stream.
	seed    int64
	srcRNGs sync.Map // netip.Addr -> *lockedRand

	cfg atomic.Pointer[netConfig]

	linkRTTHists sync.Map // netip.Addr -> *metrics.Histogram
}

// New creates an empty network with deterministic randomness: seed fixes
// every per-source RNG stream (see srcRand).
func New(seed int64) *Network {
	n := &Network{seed: seed}
	n.cfg.Store(&netConfig{timeout: 2 * time.Second})
	return n
}

// lockedRand is one source address' persistent RNG stream. The lock makes
// a *shared* source safe (two goroutines probing from the same address
// draw atomically); determinism additionally requires that at most one
// goroutine uses a given source at a time, which the detpar-converted
// callers guarantee by assigning each parallel trial its own addresses.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
	// src is the counting source backing rng; it records the stream
	// position so a world snapshot can capture — and a restore replay —
	// exactly how many values this source has drawn.
	src *detpar.CountingSource
	// flows holds per-destination fault state (exchange counters and
	// Gilbert–Elliott chain positions); nil until a faulted link is used.
	flows map[netip.Addr]*flowState
}

func (lr *lockedRand) roll() float64 {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.rng.Float64()
}

func (lr *lockedRand) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return time.Duration(lr.rng.Int63n(int64(max) + 1))
}

// srcRand returns the persistent RNG stream for exchanges originating at
// src, creating it on first use. The stream is a pure function of
// (network seed, src), so the sequence of draws a source consumes depends
// only on its own exchange history — never on what other sources are
// doing concurrently. It lives on the Network rather than the Conn
// because callers re-Bind the same source per resolution; a per-Conn
// stream would replay identical draws every time.
func (n *Network) srcRand(src netip.Addr) *lockedRand {
	if lr, ok := n.srcRNGs.Load(src); ok {
		return lr.(*lockedRand)
	}
	b := src.As16()
	lo := binary.BigEndian.Uint64(b[:8])
	hi := binary.BigEndian.Uint64(b[8:])
	cs := detpar.NewCountingSource(detpar.Derive(n.seed, lo, hi))
	lr := &lockedRand{rng: rand.New(cs), src: cs}
	actual, _ := n.srcRNGs.LoadOrStore(src, lr)
	return actual.(*lockedRand)
}

// SetMetrics attaches an accounting registry: every subsequent exchange
// counts query packets under "netsim.packets.sent", delivered responses
// under "netsim.packets.recvd", losses under "netsim.packets.lost",
// retransmissions under "netsim.retries", injected faults under
// "netsim.faults.*", and records per-destination round-trip times in
// "netsim.rtt_us.<dst>" histograms (microseconds). The registry is the
// network's only counter store: without one, events are not counted.
// A nil registry detaches instrumentation.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cfg := *n.cfg.Load()
	cfg.metrics = reg
	cfg.mSent = reg.Counter("netsim.packets.sent")
	cfg.mRecvd = reg.Counter("netsim.packets.recvd")
	cfg.mLost = reg.Counter("netsim.packets.lost")
	cfg.mRetries = reg.Counter("netsim.retries")
	cfg.mServFail = reg.Counter("netsim.faults.servfail")
	cfg.mRefused = reg.Counter("netsim.faults.refused")
	cfg.mTruncated = reg.Counter("netsim.faults.truncated")
	cfg.mDuplicated = reg.Counter("netsim.faults.duplicated")
	cfg.mLate = reg.Counter("netsim.faults.late")
	cfg.mOutage = reg.Counter("netsim.faults.outage")
	n.cfg.Store(&cfg)
	// Drop handles cached against a previously attached registry.
	n.linkRTTHists.Range(func(k, _ any) bool {
		n.linkRTTHists.Delete(k)
		return true
	})
}

// rttHist returns the per-destination RTT histogram, caching the handle so
// steady-state exchanges skip the registry's name lookup.
func (n *Network) rttHist(reg *metrics.Registry, dst netip.Addr) *metrics.Histogram {
	if reg == nil {
		return nil
	}
	if h, ok := n.linkRTTHists.Load(dst); ok {
		return h.(*metrics.Histogram)
	}
	h := reg.Histogram("netsim.rtt_us."+dst.String(), metrics.RTTBoundsUS)
	n.linkRTTHists.Store(dst, h)
	return h
}

// SetTimeout sets the simulated duration charged to an exchange whose query
// or response packet is lost.
func (n *Network) SetTimeout(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cfg := *n.cfg.Load()
	cfg.timeout = d
	n.cfg.Store(&cfg)
}

// SetClientProfile sets the link profile applied to *unregistered* source
// addresses — the probers' client side of every exchange. Historically an
// unregistered source silently got a zero profile (no loss, no delay, no
// faults) even when callers intended otherwise; the fallback is now
// explicit and configurable. The default remains the zero profile, so
// existing simulations are unchanged.
func (n *Network) SetClientProfile(p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cfg := *n.cfg.Load()
	cfg.clientProfile = p
	n.cfg.Store(&cfg)
}

// ClientProfile returns the profile applied to unregistered sources.
func (n *Network) ClientProfile() LinkProfile {
	return n.cfg.Load().clientProfile
}

// SetDown marks the host at addr as down (or back up): while down, queries
// to it vanish and clients time out, modelling the paper's §II-B transient
// platform outages without losing the host's registration or cache state
// the way Unregister would.
func (n *Network) SetDown(addr netip.Addr, down bool) {
	if h, ok := n.lookup(addr); ok {
		h.down.Store(down)
	}
}

// Register attaches handler to addr with the given link profile. It
// replaces any previous registration for addr.
func (n *Network) Register(addr netip.Addr, profile LinkProfile, handler EventHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts.Store(addr, &host{handler: handler, profile: profile})
	n.hostsView.Store(nil)
}

// Unregister removes the host at addr, simulating a machine going down —
// the paper's §II-B resilience use case (a platform with four caches of
// which two are down).
func (n *Network) Unregister(addr netip.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts.Delete(addr)
	n.hostsView.Store(nil)
}

// Registered reports whether a host is attached at addr.
func (n *Network) Registered(addr netip.Addr) bool {
	_, ok := n.hosts.Load(addr)
	return ok
}

// lookup returns the host at addr. It reads the immutable host view —
// a plain map keyed by the concrete address type — so the per-exchange
// route lookup neither locks nor boxes.
//
//cdelint:hotpath
func (n *Network) lookup(addr netip.Addr) (*host, bool) {
	m := n.hostsView.Load()
	if m == nil {
		m = n.rebuildHostsView() //cdelint:allow hotalloc cold path: runs once per registration change, not per exchange
	}
	h, ok := (*m)[addr]
	return h, ok
}

// rebuildHostsView snapshots the hosts map into a fresh immutable view.
// It runs under mu so it cannot publish a snapshot that is missing a
// registration committed after the view was invalidated.
func (n *Network) rebuildHostsView() *map[netip.Addr]*host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m := n.hostsView.Load(); m != nil {
		return m
	}
	m := make(map[netip.Addr]*host)
	n.hosts.Range(func(k, v any) bool {
		m[k.(netip.Addr)] = v.(*host)
		return true
	})
	n.hostsView.Store(&m)
	return &m
}

// safeServe invokes a blocking handler, converting panics into errors so
// one faulty simulated host cannot take down the whole network — the same
// boundary recovery a real server framework applies per request.
func safeServe(h Handler, ctx context.Context, src netip.Addr, query *dnswire.Message) (resp *dnswire.Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("netsim: handler panic: %v", r)
		}
	}()
	return h.ServeDNS(ctx, src, query)
}

// Exchanger sends one DNS query and waits for the response, reporting the
// (simulated or real) round-trip time.
type Exchanger interface {
	Exchange(ctx context.Context, query *dnswire.Message, dst netip.Addr) (*dnswire.Message, time.Duration, error)
}

// Conn is an Exchanger bound to a simulated source address.
type Conn struct {
	net *Network
	src netip.Addr
	// tcp marks a TCP-semantics exchange: immune to in-flight truncation
	// and duplication, at the cost of one extra handshake round trip.
	tcp bool
}

var _ Exchanger = (*Conn)(nil)

// Bind returns an Exchanger that sends from src. The source needs no
// registered handler; registration is only required to *receive* queries.
func (n *Network) Bind(src netip.Addr) *Conn {
	return &Conn{net: n, src: src}
}

// Src returns the bound source address.
func (c *Conn) Src() netip.Addr { return c.src }

// TCP returns a copy of the Conn that exchanges with TCP semantics: the
// simulated path never truncates or duplicates its messages (TCP is a
// byte stream with its own retransmission), and every exchange is charged
// one extra round trip for the connection handshake — the same cost shape
// udpnet's real-socket TCP fallback pays.
func (c *Conn) TCP() *Conn {
	cc := *c
	cc.tcp = true
	return &cc
}

// retryCounter exposes the network's retransmission counter to
// ExchangeRetry (nil when no registry is attached).
func (c *Conn) retryCounter() *metrics.Counter {
	return c.net.cfg.Load().mRetries
}

// scratchPool recycles the wire-encoding buffers used by exchanges. Safe
// because dnswire.Unpack never aliases its input: every decoded field is
// copied out of the wire bytes, so the scratch can be reused the moment
// Unpack returns.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// noteFault records one injected fault in the metrics registry (when
// attached) and the context's trace (when present). The switch covers
// every FaultKind member; the exhaustive analyzer keeps it that way when
// a new kind is added.
func noteFault(ctx context.Context, cfg *netConfig, kind FaultKind, src, dst netip.Addr) {
	var ctr *metrics.Counter
	switch kind {
	case FaultServFail:
		ctr = cfg.mServFail
	case FaultRefused:
		ctr = cfg.mRefused
	case FaultTruncate:
		ctr = cfg.mTruncated
	case FaultDuplicate:
		ctr = cfg.mDuplicated
	case FaultLate:
		ctr = cfg.mLate
	case FaultOutage:
		ctr = cfg.mOutage
	}
	ctr.Inc()
	//cdelint:allow hotalloc fault notes format and box only when a fault fired, off the steady-state path
	trace.Addf(ctx, "fault", "%s: %v -> %v", string(kind), src, dst)
}
