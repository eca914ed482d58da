package core

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// Survey bundles every CDE measurement into one platform profile — the
// complete answer to the paper's motivating questions (§II): how many
// caches, behind which IPs, selected how, running what, with which TTL
// policy.
type Survey struct {
	// Caches is the adaptive enumeration result.
	Caches AdaptiveResult
	// Egress lists the discovered egress IPs.
	Egress EgressResult
	// Selection is the strategy classification.
	Selection ClassifyResult
	// Software is the resolver fingerprint and its class.
	Software      Fingerprint
	SoftwareClass Software
	// TTL is the inferred clamping policy.
	TTL TTLPolicy
	// Timing carries the latency-channel cross-check.
	Timing TimingResult

	ProbesSent int
}

// SurveyOptions tunes SurveyPlatform.
type SurveyOptions struct {
	// ExtraVantages improve selection classification on
	// hash-by-source-IP platforms (see ClassifyOptions).
	ExtraVantages []Prober
}

// SurveyPlatform runs the full CDE measurement suite against the platform
// behind prober p. The prober must be direct (the classifier and the TTL
// probe need repeatable queries).
func SurveyPlatform(ctx context.Context, p Prober, in *Infra, opts SurveyOptions) (*Survey, error) {
	if !p.Direct() {
		return nil, fmt.Errorf("core: a survey needs a direct prober")
	}
	s := &Survey{}

	caches, err := EnumerateAdaptive(ctx, p, in, AdaptiveOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: survey enumeration: %w", err)
	}
	s.Caches = caches
	s.ProbesSent += caches.ProbesSent

	egress, err := DiscoverEgressAdaptive(ctx, p, in, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("core: survey egress discovery: %w", err)
	}
	sort.Slice(egress.IPs, func(i, j int) bool { return egress.IPs[i].Less(egress.IPs[j]) })
	s.Egress = egress
	s.ProbesSent += egress.ProbesSent

	selection, err := ClassifySelection(ctx, p, in, ClassifyOptions{ExtraVantages: opts.ExtraVantages})
	if err != nil {
		return nil, fmt.Errorf("core: survey classification: %w", err)
	}
	s.Selection = selection
	s.ProbesSent += selection.ProbesSent

	fp, err := FingerprintResolver(ctx, p, in)
	if err != nil {
		return nil, fmt.Errorf("core: survey fingerprint: %w", err)
	}
	s.Software = fp
	s.SoftwareClass = ClassifySoftware(fp)
	s.ProbesSent += fp.ProbesSent

	ttl, err := InferTTLPolicy(ctx, p, in, TTLProbeOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: survey ttl policy: %w", err)
	}
	s.TTL = ttl
	s.ProbesSent += ttl.ProbesSent

	timing, err := EnumerateTimingDirect(ctx, p, in, TimingOptions{
		CountProbes: RecommendedQueries(maxInt(s.Caches.Caches+1, 4), 0.99),
	})
	if err != nil {
		return nil, fmt.Errorf("core: survey timing channel: %w", err)
	}
	s.Timing = timing
	s.ProbesSent += timing.ProbesSent
	return s, nil
}

// Render returns a human-readable platform profile.
func (s *Survey) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "caches:            %d (converged=%v, %d probes)\n",
		s.Caches.Caches, s.Caches.Converged, s.Caches.ProbesSent)
	fmt.Fprintf(&sb, "egress IPs:        %d %v\n", len(s.Egress.IPs), formatAddrs(s.Egress.IPs, 8))
	fmt.Fprintf(&sb, "cache selection:   %s (sequential %d/%d)\n",
		s.Selection.Class, s.Selection.SequentialRuns, s.Selection.Runs)
	fmt.Fprintf(&sb, "software class:    %s (chase depth %d, limited=%v, AAAA=%v, trusts chains=%v)\n",
		s.SoftwareClass, s.Software.ObservedChaseDepth, s.Software.ChaseLimited,
		s.Software.QueriesAAAA, s.Software.TrustsServerChains)
	fmt.Fprintf(&sb, "TTL policy:        %s\n", renderTTLPolicy(s.TTL))
	fmt.Fprintf(&sb, "timing cross-check: %d caches (threshold %v)\n",
		s.Timing.Caches, s.Timing.Threshold)
	fmt.Fprintf(&sb, "total probes:      %d\n", s.ProbesSent)
	return sb.String()
}

func renderTTLPolicy(t TTLPolicy) string {
	switch {
	case t.MinTTL > 0 && t.MaxTTL > 0:
		return fmt.Sprintf("min clamp ≈%v, max clamp ≈%v", t.MinTTL, t.MaxTTL)
	case t.MinTTL > 0:
		return fmt.Sprintf("min clamp ≈%v", t.MinTTL)
	case t.MaxTTL > 0:
		return fmt.Sprintf("max clamp ≈%v", t.MaxTTL)
	default:
		return "authoritative TTLs honoured"
	}
}

func formatAddrs(addrs []netip.Addr, limit int) string {
	if len(addrs) <= limit {
		return fmt.Sprintf("%v", addrs)
	}
	return fmt.Sprintf("%v …(+%d)", addrs[:limit], len(addrs)-limit)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
