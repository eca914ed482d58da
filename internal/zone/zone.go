// Package zone implements authoritative DNS zone data: an in-memory store
// of resource records with RFC 1034 lookup semantics (exact matches, CNAME
// indirection, zone cuts / delegations, wildcards, NXDOMAIN vs NODATA) and
// an RFC 1035 master-file parser.
//
// The CDE infrastructure of the paper is built on exactly the two zone
// shapes reproduced in zonefiles.go: the flat cache.example zone with
// CNAME chains (§IV-B2a) and the delegated sub.cache.example hierarchy
// (§IV-B2b).
package zone

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dnscde/internal/dnswire"
)

// Zone errors.
var (
	ErrNoSOA         = errors.New("zone: zone has no SOA record")
	ErrOutOfZone     = errors.New("zone: record owner not within zone origin")
	ErrCNAMEConflict = errors.New("zone: CNAME cannot coexist with other data")
)

// Zone holds the records of one zone of authority. The zero value is not
// usable; use New. Zone is safe for concurrent use: lookups may race with
// record insertion (used by experiments that plant honey records live).
type Zone struct {
	origin string

	mu sync.RWMutex
	// names maps canonical owner name → rrset per type.
	names map[string]map[dnswire.Type][]dnswire.RR
}

// New creates an empty zone rooted at origin.
func New(origin string) *Zone {
	return &Zone{
		origin: dnswire.CanonicalName(origin),
		names:  make(map[string]map[dnswire.Type][]dnswire.RR),
	}
}

// Origin returns the canonical zone origin.
func (z *Zone) Origin() string { return z.origin }

// Add inserts rr into the zone. The owner must be at or below the origin.
// Adding a CNAME alongside other data (or vice versa) is rejected, per
// RFC 1034 §3.6.2.
func (z *Zone) Add(rr dnswire.RR) error {
	name := dnswire.CanonicalName(rr.Name)
	if !dnswire.IsSubdomain(name, z.origin) {
		return fmt.Errorf("%w: %q not under %q", ErrOutOfZone, name, z.origin)
	}
	if rr.Data == nil {
		return fmt.Errorf("zone: record %q has nil payload", name)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	sets := z.names[name]
	if sets == nil {
		sets = make(map[dnswire.Type][]dnswire.RR)
		z.names[name] = sets
	}
	if rr.Type() == dnswire.TypeCNAME {
		for t := range sets {
			if t != dnswire.TypeCNAME {
				return fmt.Errorf("%w: %q already has %v data", ErrCNAMEConflict, name, t)
			}
		}
	} else if _, hasCNAME := sets[dnswire.TypeCNAME]; hasCNAME {
		return fmt.Errorf("%w: %q already has a CNAME", ErrCNAMEConflict, name)
	}
	sets[rr.Type()] = append(sets[rr.Type()], rr)
	return nil
}

// MustAdd is Add for static zone construction in tests and examples; it
// panics on error.
func (z *Zone) MustAdd(rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// SOA returns the zone's SOA record.
func (z *Zone) SOA() (dnswire.RR, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if set, ok := z.names[z.origin]; ok {
		if soas := set[dnswire.TypeSOA]; len(soas) > 0 {
			return soas[0], nil
		}
	}
	return dnswire.RR{}, ErrNoSOA
}

// Validate checks basic zone invariants: an SOA and NS set at the apex.
func (z *Zone) Validate() error {
	if _, err := z.SOA(); err != nil {
		return err
	}
	z.mu.RLock()
	defer z.mu.RUnlock()
	if len(z.names[z.origin][dnswire.TypeNS]) == 0 {
		return fmt.Errorf("zone: no NS records at apex %q", z.origin)
	}
	return nil
}

// Len returns the total number of records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, sets := range z.names {
		for _, rrs := range sets {
			n += len(rrs)
		}
	}
	return n
}

// Names returns the sorted list of owner names present in the zone.
func (z *Zone) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]string, 0, len(z.names))
	for name := range z.names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ResultKind classifies the outcome of a zone lookup.
type ResultKind uint8

// Lookup outcomes.
const (
	// Answer: records of the requested type exist at the name.
	Answer ResultKind = iota + 1
	// CNAMEAnswer: the name owns a CNAME; Records holds it and Target the
	// alias target for the caller to chase.
	CNAMEAnswer
	// Delegation: the name is at or below a zone cut; Records holds the
	// NS rrset and Glue the in-zone addresses of those servers.
	Delegation
	// NoData: the name exists but has no records of the requested type.
	NoData
	// NXDomain: the name does not exist in the zone.
	NXDomain
	// OutOfZone: the name is not within this zone's origin at all.
	OutOfZone
)

// String returns a mnemonic for k.
func (k ResultKind) String() string {
	switch k {
	case Answer:
		return "ANSWER"
	case CNAMEAnswer:
		return "CNAME"
	case Delegation:
		return "DELEGATION"
	case NoData:
		return "NODATA"
	case NXDomain:
		return "NXDOMAIN"
	case OutOfZone:
		return "OUTOFZONE"
	default:
		return fmt.Sprintf("KIND%d", k)
	}
}

// Result is the outcome of a Lookup.
type Result struct {
	Kind    ResultKind
	Records []dnswire.RR
	// Glue carries A/AAAA records for delegation NS targets when present
	// in the zone.
	Glue []dnswire.RR
	// Target is the CNAME target when Kind is CNAMEAnswer.
	Target string
	// Authority carries the SOA record for negative answers.
	Authority []dnswire.RR
}

// Lookup resolves (name, qtype) against the zone following RFC 1034 §4.3.2:
// walk down from the origin; a zone cut (NS rrset at a non-apex name on the
// path) yields a referral; otherwise match the name exactly or via
// wildcard.
func (z *Zone) Lookup(name string, qtype dnswire.Type) Result {
	name = dnswire.CanonicalName(name)
	if !dnswire.IsSubdomain(name, z.origin) {
		return Result{Kind: OutOfZone}
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	// Walk ancestors from just below the origin down to the name itself,
	// looking for a zone cut. Any name at or below a cut yields a
	// referral — the parent is not authoritative past the cut.
	if cut, ok := z.findCutLocked(name); ok {
		// Referral: NS set at the cut plus glue.
		nsSet := z.names[cut][dnswire.TypeNS]
		res := Result{Kind: Delegation, Records: copyRRs(nsSet)}
		for _, ns := range nsSet {
			nsr, ok := ns.Data.(dnswire.NSRecord)
			if !ok {
				continue
			}
			host := dnswire.CanonicalName(nsr.Host)
			if set, ok := z.names[host]; ok {
				res.Glue = append(res.Glue, copyRRs(set[dnswire.TypeA])...)
				res.Glue = append(res.Glue, copyRRs(set[dnswire.TypeAAAA])...)
			}
		}
		return res
	}

	sets, exists := z.names[name]
	if !exists {
		// Try wildcard: replace the leftmost label at each ancestor level
		// (RFC 1034 §4.3.3, simplified to the closest-encloser wildcard).
		if wsets, ok := z.findWildcardLocked(name); ok {
			return z.answerFromLocked(name, wsets, qtype)
		}
		// Empty non-terminal: some existing name is below this one.
		for existing := range z.names {
			if existing != name && dnswire.IsSubdomain(existing, name) {
				return z.negativeLocked(NoData)
			}
		}
		return z.negativeLocked(NXDomain)
	}
	return z.answerFromLocked(name, sets, qtype)
}

// findCutLocked finds the highest zone cut strictly below the origin on the
// path to name. It returns the cut owner and true when a cut exists at or
// above name.
func (z *Zone) findCutLocked(name string) (string, bool) {
	labels := dnswire.SplitLabels(name)
	originLabels := dnswire.CountLabels(z.origin)
	// Ancestors from just below origin to name itself.
	for depth := originLabels + 1; depth <= len(labels); depth++ {
		ancestor := strings.Join(labels[len(labels)-depth:], ".") + "."
		if sets, ok := z.names[ancestor]; ok {
			if _, hasNS := sets[dnswire.TypeNS]; hasNS && ancestor != z.origin {
				return ancestor, true
			}
		}
	}
	return "", false
}

// findWildcardLocked looks for "*.<ancestor>" records covering name.
func (z *Zone) findWildcardLocked(name string) (map[dnswire.Type][]dnswire.RR, bool) {
	labels := dnswire.SplitLabels(name)
	for i := 1; i < len(labels); i++ {
		candidate := "*." + strings.Join(labels[i:], ".") + "."
		if !dnswire.IsSubdomain(candidate, z.origin) {
			break
		}
		if sets, ok := z.names[candidate]; ok {
			return sets, true
		}
	}
	return nil, false
}

// answerFromLocked builds the result for an existing name. Records are
// rewritten to carry the queried owner name so wildcard synthesis is
// transparent to callers.
func (z *Zone) answerFromLocked(owner string, sets map[dnswire.Type][]dnswire.RR, qtype dnswire.Type) Result {
	if cnames := sets[dnswire.TypeCNAME]; len(cnames) > 0 && qtype != dnswire.TypeCNAME && qtype != dnswire.TypeANY {
		rr := cnames[0]
		rr.Name = owner
		target := ""
		if c, ok := rr.Data.(dnswire.CNAMERecord); ok {
			target = dnswire.CanonicalName(c.Target)
		}
		return Result{Kind: CNAMEAnswer, Records: []dnswire.RR{rr}, Target: target}
	}
	var records []dnswire.RR
	if qtype == dnswire.TypeANY {
		for _, rrs := range sets {
			records = append(records, rrs...)
		}
	} else {
		records = copyRRs(sets[qtype])
	}
	if len(records) == 0 {
		return z.negativeLocked(NoData)
	}
	out := make([]dnswire.RR, len(records))
	for i, rr := range records {
		rr.Name = owner
		out[i] = rr
	}
	return Result{Kind: Answer, Records: out}
}

// negativeLocked decorates a negative result with the zone SOA for
// RFC 2308 negative caching.
func (z *Zone) negativeLocked(kind ResultKind) Result {
	res := Result{Kind: kind}
	if set, ok := z.names[z.origin]; ok {
		res.Authority = copyRRs(set[dnswire.TypeSOA])
	}
	return res
}

// copyRRs returns a defensive copy of rrs (the RR values themselves are
// treated as immutable).
func copyRRs(rrs []dnswire.RR) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(rrs))
	copy(out, rrs)
	return out
}
