package core

// This file implements resolver-software fingerprinting from the
// nameserver side — the §II-C motivation ("for distribution and
// integration of patches it is important to know which software the
// caches are running") built on the query-pattern features the §VI
// related work identifies: the maximal CNAME-chain length a resolver
// follows itself, whether it issues AAAA queries after A queries, and
// whether it trusts server-appended CNAME chains.

import (
	"context"
	"fmt"

	"dnscde/internal/dnswire"
)

// Fingerprint is the externally observable behaviour profile of a
// resolution platform.
type Fingerprint struct {
	// ObservedChaseDepth is how many CNAME links the platform queried
	// individually at the nameserver.
	ObservedChaseDepth int
	// ChaseLimited reports that the probe chain was deeper than the
	// platform was willing to walk (the probe failed or the target was
	// never queried); ObservedChaseDepth then *is* the platform's limit.
	ChaseLimited bool
	// TrustsServerChains reports BIND-style acceptance of
	// server-appended CNAME chains: the final answer arrived although
	// only the first link was ever queried.
	TrustsServerChains bool
	// QueriesAAAA reports an A→AAAA follow-up pattern.
	QueriesAAAA bool
	ProbesSent  int
}

// Fingerprint probe chain lengths. The trust probe's shallow chain must
// be within every resolver's chase budget; the limit-measurement chain
// must exceed any plausible chase limit.
const (
	fingerprintShallowDepth = 4
	fingerprintChainDepth   = 24
)

// FingerprintResolver measures a platform's query-pattern fingerprint
// with three probes: an A query for a fresh honey record (AAAA-coupling
// check), a query into a shallow CNAME chain (chain-trust check: did the
// platform re-query each link or accept the server-appended chain?), and
// a query into a deep chain (chase-limit measurement).
func FingerprintResolver(ctx context.Context, p Prober, in *Infra) (Fingerprint, error) {
	var fp Fingerprint

	// Probe 1: AAAA coupling.
	flat, err := in.NewFlatSession()
	if err != nil {
		return fp, err
	}
	fp.ProbesSent++
	if _, err := p.Probe(ctx, flat.Honey, dnswire.TypeA); err != nil {
		return fp, fmt.Errorf("core: fingerprint A probe: %w", err)
	}
	fp.QueriesAAAA = in.Parent.Log().CountNameType(flat.Honey, dnswire.TypeAAAA) > 0

	// Probe 2: shallow chain — every resolver can complete it; only a
	// chain-trusting one does so without querying the later links.
	shallow, err := in.NewDeepChainSession(fingerprintShallowDepth)
	if err != nil {
		return fp, err
	}
	fp.ProbesSent++
	res, probeErr := p.Probe(ctx, shallow.Links[0], dnswire.TypeA)
	answered := probeErr == nil && res.RCode == dnswire.RCodeNoError && len(res.Records) > 0
	if answered && shallow.ObservedDepth() == 1 && !shallow.TargetReached() {
		fp.TrustsServerChains = true
		fp.ObservedChaseDepth = 1
		return fp, nil
	}

	// Probe 3: deep chain — how far does the platform walk on its own?
	deep, err := in.NewDeepChainSession(fingerprintChainDepth)
	if err != nil {
		return fp, err
	}
	fp.ProbesSent++
	_, _ = p.Probe(ctx, deep.Links[0], dnswire.TypeA)
	fp.ObservedChaseDepth = deep.ObservedDepth()
	fp.ChaseLimited = !deep.TargetReached()
	return fp, nil
}

// Software is a coarse resolver-software class derived from a
// fingerprint, in the spirit of the §VI passive-fingerprinting studies.
type Software string

// Software classes used by the fingerprint experiment. The labels follow
// the behavioural archetypes of the fingerprinting literature; they are
// classes, not version claims.
const (
	// SoftwareChainTrusting accepts server-appended CNAME chains
	// (BIND-style).
	SoftwareChainTrusting Software = "chain-trusting"
	// SoftwareAAAACoupled re-queries AAAA after A (Windows-style).
	SoftwareAAAACoupled Software = "aaaa-coupled"
	// SoftwareHardened re-queries every CNAME target itself and issues
	// no coupled AAAA queries (Unbound-style).
	SoftwareHardened Software = "hardened"
	// SoftwareUnknown is anything else.
	SoftwareUnknown Software = "unknown"
)

// ClassifySoftware maps a fingerprint to its software class.
func ClassifySoftware(fp Fingerprint) Software {
	switch {
	case fp.TrustsServerChains:
		return SoftwareChainTrusting
	case fp.QueriesAAAA:
		return SoftwareAAAACoupled
	case fp.ObservedChaseDepth > 1:
		return SoftwareHardened
	default:
		return SoftwareUnknown
	}
}
