// Package authns implements the authoritative nameserver side of the CDE
// infrastructure (Fig. 1 of the paper): it serves the prober-controlled
// zones (cache.example and its delegated children) and records every
// arriving query in a log.
//
// The query log is the paper's primary side channel: the number of queries
// ω that reach the nameserver for a probe name equals the number of caches
// that missed, and the set of source addresses seen equals the platform's
// egress IPs (§IV-B1).
package authns

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/netsim/des"
	"dnscde/internal/zone"
)

// LogEntry records one query observed by the nameserver.
type LogEntry struct {
	Time time.Time
	Src  netip.Addr
	Q    dnswire.Question
	// EDNS reports whether the query carried an EDNS0 OPT record, and
	// UDPSize its advertised payload size — the adoption signal §II-C
	// motivates measuring.
	EDNS    bool
	UDPSize uint16
}

// QueryLog is a thread-safe append-only log of observed queries.
// The zero value is ready to use.
//
// One mutex guards one arrival-ordered slice of entries and an index
// built by Append: every canonical ancestor of an entry's query name (the
// name itself, then each suffix after a label boundary, kept as
// substrings of the name) maps to the positions of the entries under it.
// Readouts scoped to a suffix walk only that suffix's positions, in
// arrival order, so a session's readout costs its own arrivals rather
// than the whole shared log; "" and "." walk every entry. Names compare
// canonically, with dnswire.IsSubdomain's label-boundary rule.
//
// A simulated server runs on one scheduler lane, so its appends never
// contend; the mutex keeps real-socket serving and concurrent readers
// safe. Order within a session follows its own sequential probes.
type QueryLog struct {
	mu      sync.Mutex
	entries []LogEntry
	under   map[string][]int32
}

// Append adds an entry.
func (l *QueryLog) Append(e LogEntry) {
	name := dnswire.CanonicalName(e.Q.Name)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.under == nil {
		l.under = make(map[string][]int32)
	}
	pos := int32(len(l.entries))
	l.entries = append(l.entries, e)
	for key := name; key != ""; _, key, _ = strings.Cut(key, ".") {
		l.under[key] = append(l.under[key], pos)
	}
}

// Len returns the number of logged queries.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Entries returns a copy of the log in arrival order.
func (l *QueryLog) Entries() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.entries)
}

// EntriesSince returns copies of the entries under suffix ("" or "." for
// all), in arrival order, skipping the first cursor of them, and the
// cursor for the next read. A session that reads its zone this way pays
// only for the arrivals since its last read.
func (l *QueryLog) EntriesSince(suffix string, cursor int) ([]LogEntry, int) {
	var out []LogEntry
	next := l.walk(suffix, cursor, func(e *LogEntry) { out = append(out, *e) })
	return out, next
}

// Reset clears the log between experiments.
func (l *QueryLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries, l.under = nil, nil
}

// walk visits, in arrival order, the entries under suffix ("" or "." for
// all) after the first from of them, and returns how many there are.
func (l *QueryLog) walk(suffix string, from int, fn func(e *LogEntry)) int {
	suffix = dnswire.CanonicalName(suffix)
	l.mu.Lock()
	defer l.mu.Unlock()
	if suffix == "." {
		for i := min(from, len(l.entries)); i < len(l.entries); i++ {
			fn(&l.entries[i])
		}
		return len(l.entries)
	}
	positions := l.under[suffix]
	for _, p := range positions[min(from, len(positions)):] {
		fn(&l.entries[p])
	}
	return len(positions)
}

// forName visits the entries that asked for exactly name, in arrival
// order.
func (l *QueryLog) forName(name string, fn func(e *LogEntry)) {
	name = dnswire.CanonicalName(name)
	l.walk(name, 0, func(e *LogEntry) {
		if dnswire.CanonicalName(e.Q.Name) == name {
			fn(e)
		}
	})
}

// CountName returns how many logged queries asked for name (any type).
// This is the ω of §IV-B1a.
func (l *QueryLog) CountName(name string) int {
	n := 0
	l.forName(name, func(*LogEntry) { n++ })
	return n
}

// CountNameType returns how many logged queries asked for (name, qtype).
// Data-collection channels that query one name under several types (an
// SMTP server checking TXT, SPF and MX for a sender domain) are counted
// per type with this method so ω is not inflated.
func (l *QueryLog) CountNameType(name string, t dnswire.Type) int {
	n := 0
	l.forName(name, func(e *LogEntry) {
		if e.Q.Type == t {
			n++
		}
	})
	return n
}

// CountNameMaxType returns the largest per-qtype arrival count for name.
// When a channel resolves one name under several types (TXT + SPF + MX
// from one probe email), each type group independently counts the caches
// it touched; the maximum is the best single-group estimate.
func (l *QueryLog) CountNameMaxType(name string) int {
	perType := make(map[dnswire.Type]int)
	best := 0
	l.forName(name, func(e *LogEntry) {
		perType[e.Q.Type]++
		best = max(best, perType[e.Q.Type])
	})
	return best
}

// CountSuffix returns how many logged queries asked for names under
// suffix (inclusive).
func (l *QueryLog) CountSuffix(suffix string) int {
	return l.walk(suffix, 0, func(*LogEntry) {})
}

// DistinctSources returns the set of source addresses seen, in first-seen
// order, optionally restricted to queries under suffix (pass "" or "."
// for all). These are the platform's egress IPs.
func (l *QueryLog) DistinctSources(suffix string) []netip.Addr {
	seen := make(map[netip.Addr]struct{})
	var out []netip.Addr
	l.walk(suffix, 0, func(e *LogEntry) {
		if _, dup := seen[e.Src]; !dup {
			seen[e.Src] = struct{}{}
			out = append(out, e.Src)
		}
	})
	return out
}

// EDNSShare returns the fraction of logged queries (optionally under
// suffix) that carried an EDNS0 OPT record — the §II-C adoption
// measurement.
func (l *QueryLog) EDNSShare(suffix string) float64 {
	edns := 0
	total := l.walk(suffix, 0, func(e *LogEntry) {
		if e.EDNS {
			edns++
		}
	})
	if total == 0 {
		return 0
	}
	return float64(edns) / float64(total)
}

// CountByType tallies logged queries per qtype, optionally restricted to
// names under suffix. The SMTP experiment (Table I) is built on this.
func (l *QueryLog) CountByType(suffix string) map[dnswire.Type]int {
	out := make(map[dnswire.Type]int)
	l.walk(suffix, 0, func(e *LogEntry) { out[e.Q.Type]++ })
	return out
}

// Server is an authoritative nameserver for one or more zones. It
// implements netsim.EventHandler for the simulated network and
// netsim.Handler for real sockets, and is safe for concurrent use.
type Server struct {
	mu    sync.RWMutex
	zones map[string]*zone.Zone

	log *QueryLog
	clk clock.Clock

	// controlZone, when set, answers log-statistics TXT queries under
	// this origin (see control.go).
	controlZone string

	// metricsReg, when non-nil, mirrors arrivals into the accounting
	// registry: "authns.queries" plus per-qtype and per-source breakdowns.
	metricsReg *metrics.Registry
	mQueries   *metrics.Counter
}

var (
	_ netsim.Handler      = (*Server)(nil)
	_ netsim.EventHandler = (*Server)(nil)
)

// Option configures a Server.
type Option func(*Server)

// WithClock sets the clock used to timestamp log entries.
func WithClock(c clock.Clock) Option {
	return func(s *Server) { s.clk = c }
}

// WithMetrics attaches an accounting registry at construction time; see
// SetMetrics.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Server) { s.setMetricsLocked(reg) }
}

// SetMetrics attaches an accounting registry: arrivals are counted under
// "authns.queries" with "authns.queries.qtype.<type>" and
// "authns.queries.src.<addr>" breakdowns — the query-volume and egress-
// source view of the nameserver's side channel. A nil registry detaches
// instrumentation.
func (s *Server) SetMetrics(reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setMetricsLocked(reg)
}

func (s *Server) setMetricsLocked(reg *metrics.Registry) {
	s.metricsReg = reg
	s.mQueries = reg.Counter("authns.queries")
}

// countArrival mirrors one logged query into the registry.
func (s *Server) countArrival(e LogEntry) {
	s.mu.RLock()
	reg, total := s.metricsReg, s.mQueries
	s.mu.RUnlock()
	if reg == nil {
		return
	}
	total.Inc()
	reg.Counter("authns.queries.qtype." + e.Q.Type.String()).Inc()
	reg.Counter("authns.queries.src." + e.Src.String()).Inc()
}

// NewServer creates a nameserver serving the given zones.
func NewServer(zones []*zone.Zone, opts ...Option) *Server {
	s := &Server{
		zones: make(map[string]*zone.Zone, len(zones)),
		log:   &QueryLog{},
		clk:   clock.Real{},
	}
	for _, z := range zones {
		s.zones[z.Origin()] = z
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// AddZone attaches another zone to the server.
func (s *Server) AddZone(z *zone.Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin()] = z
}

// Log returns the server's query log.
func (s *Server) Log() *QueryLog { return s.log }

// findZone returns the most specific zone whose origin is an ancestor of
// name.
func (s *Server) findZone(name string) (*zone.Zone, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best *zone.Zone
	bestLabels := -1
	for origin, z := range s.zones {
		if dnswire.IsSubdomain(name, origin) {
			if n := dnswire.CountLabels(origin); n > bestLabels {
				best, bestLabels = z, n
			}
		}
	}
	return best, best != nil
}

// ServeDNSEvent implements netsim.EventHandler: an authoritative lookup
// has no upstream work, so the event-native form answers inline and the
// response leaves at the delivery instant.
func (s *Server) ServeDNSEvent(ctx context.Context, sched *des.Scheduler, src netip.Addr, query *dnswire.Message, r netsim.Responder) {
	resp, err := s.ServeDNS(ctx, src, query)
	r.Respond(sched.Now(), resp, err)
}

// ServeDNS implements netsim.Handler: log the query, look it up, build the
// response per RFC 1034 §4.3.2 (including in-zone CNAME chasing).
//
//cdelint:allow ctxflow the lookup never blocks; ctx is part of the Handler contract
func (s *Server) ServeDNS(ctx context.Context, src netip.Addr, query *dnswire.Message) (*dnswire.Message, error) {
	q, err := query.FirstQuestion()
	if err != nil {
		resp := dnswire.NewResponse(query)
		resp.Header.RCode = dnswire.RCodeFormErr
		return resp, nil
	}
	// Control queries read the log and are not part of the measurement;
	// answer them before logging.
	if ctl := s.controlAnswer(q, query); ctl != nil {
		return ctl, nil
	}
	entry := LogEntry{Time: s.clk.Now(), Src: src, Q: q}
	for _, rr := range query.Additional {
		if opt, ok := rr.Data.(dnswire.OPTRecord); ok {
			entry.EDNS = true
			entry.UDPSize = opt.UDPSize
			break
		}
	}
	s.log.Append(entry)
	s.countArrival(entry)

	resp := dnswire.NewResponse(query)
	if query.Header.Opcode != dnswire.OpcodeQuery {
		resp.Header.RCode = dnswire.RCodeNotImp
		return resp, nil
	}

	z, ok := s.findZone(q.Name)
	if !ok {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp, nil
	}

	name := q.Name
	// Chase CNAMEs within our own authority. Both the hop bound and the
	// loop detection end the chase by returning the chain accumulated so
	// far (NOERROR) — like production servers, which leave the rest of a
	// long or looping chain to the resolver.
	visited := map[string]bool{name: true}
	for hop := 0; hop < 16; hop++ {
		res := z.Lookup(name, q.Type)
		switch res.Kind {
		case zone.Answer:
			resp.Header.Authoritative = true
			resp.Answer = append(resp.Answer, res.Records...)
			return resp, nil
		case zone.CNAMEAnswer:
			resp.Header.Authoritative = true
			resp.Answer = append(resp.Answer, res.Records...)
			if visited[res.Target] {
				return resp, nil // loop: stop with the partial chain
			}
			visited[res.Target] = true
			// Continue inside this server's zones if possible; the target
			// may cross into a child zone we also serve.
			if tz, ok := s.findZone(res.Target); ok {
				z, name = tz, res.Target
				continue
			}
			return resp, nil
		case zone.Delegation:
			resp.Header.Authoritative = false
			resp.Authority = append(resp.Authority, res.Records...)
			resp.Additional = append(resp.Additional, res.Glue...)
			return resp, nil
		case zone.NoData:
			resp.Header.Authoritative = true
			resp.Authority = append(resp.Authority, res.Authority...)
			return resp, nil
		case zone.NXDomain:
			resp.Header.Authoritative = true
			// If we already answered CNAME hops, the final target's
			// nonexistence still yields NXDOMAIN per RFC 6604.
			resp.Header.RCode = dnswire.RCodeNXDomain
			resp.Authority = append(resp.Authority, res.Authority...)
			return resp, nil
		case zone.OutOfZone:
			resp.Header.RCode = dnswire.RCodeRefused
			return resp, nil
		default:
			return nil, fmt.Errorf("authns: unexpected lookup kind %v", res.Kind)
		}
	}
	// Hop bound reached: return the partial chain accumulated so far.
	return resp, nil
}
