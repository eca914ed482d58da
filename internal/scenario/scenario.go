// Package scenario makes CDE experiment topologies *data*: a declarative,
// deterministic plain-text format (zone-file-flavoured — ';' comments,
// '$' directives, parenthesised stanzas) that describes a complete
// experiment — platform topology (ingress/egress IPs, cache clusters,
// TTL policy, load-balancing policy), per-link fault profiles (the
// netsim.ParseFaultProfile grammar), client populations and probe
// workloads — plus a compiler into the simtest/platform machinery and a
// runner that produces byte-stable canonical JSON reports.
//
// The curated corpus under testdata/scenarios/ is locked by checked-in
// golden reports (testdata/scenarios/golden/): every scenario must
// produce byte-identical canonical reports at any worker count, and any
// behavioural drift in the enumeration/fault/metrics machinery shows up
// as a one-line golden diff. See EXPERIMENTS.md "Scenario corpus".
package scenario

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"time"

	"dnscde/internal/loadbal"
	"dnscde/internal/netsim"
)

// Limits keeping parsed scenarios compilable and conformance runs fast.
const (
	MaxTrials    = 64
	MaxCaches    = 1024
	MaxAddrs     = 256
	MaxQueries   = 65536
	MaxReplicate = 64
	MaxClients   = 1024
	MaxPlatforms = 16
	MaxWorkloads = 16
)

// Campaign header limits: a standing campaign schedules at most MaxTicks
// runs, fans at most MaxConcurrentRuns of them out at once, and retries
// each failed run at most MaxRunRetries times.
const (
	MaxTicks          = 100000
	MaxConcurrentRuns = 64
	MaxRunRetries     = 16
	MaxRateBurst      = 1024
)

// Kind names a probing technique. It is a closed enum: the exhaustive
// analyzer makes every switch over Kind account for all members, so
// adding a kind here surfaces every dispatch site that must learn about
// it.
type Kind string

// Workload kinds.
const (
	KindDirect    Kind = "direct"    // §IV-B1: identical queries at an ingress IP
	KindChain     Kind = "chain"     // §IV-B2a: CNAME-chain bypass through local caches
	KindHierarchy Kind = "hierarchy" // §IV-B2b: names-hierarchy bypass
	KindTiming    Kind = "timing"    // §IV-B3: latency side channel
	KindSMTP      Kind = "smtp"      // §III-B: indirect channel through a mail server
	KindAdnet     Kind = "adnet"     // §III-C: indirect channel through web clients
)

var egressPolicyNames = map[string]bool{
	"random": true, "round-robin": true, "per-cache": true,
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9.-]*$`)

// Scenario is one parsed scenario file: a full CDE experiment described
// as data. Parse + Validate produce it; Compile/Run execute it.
type Scenario struct {
	// Name identifies the scenario ($SCENARIO directive); golden reports
	// are stored under this name.
	Name string
	// Seed drives every random stream of the run ($SEED, default 1).
	Seed int64
	// Trials is the number of independent Monte-Carlo trials ($TRIALS,
	// default 3); each trial owns a fresh simulated Internet seeded from
	// the detpar stream, so reports are identical at any worker count.
	Trials int
	// Platforms in declaration order. A platform may forward to an
	// earlier-declared platform, building multi-layer topologies.
	Platforms []PlatformDef
	// Workloads in declaration order, executed sequentially per trial.
	Workloads []WorkloadDef
	// Campaign is the optional schedule/budget header turning the
	// scenario into a standing measurement campaign (internal/campaign).
	// One-shot runners (cdebench, cdescan) ignore it; nil means the
	// scenario was written for one-shot execution.
	Campaign *CampaignDef
}

// CampaignDef is the campaign header: how a scenario is scheduled and
// budgeted when submitted to the campaign engine as a standing
// measurement. Every field is about *execution* of repeated runs —
// nothing in it changes what a single run measures, so the same file
// works under cdebench and the engine alike.
type CampaignDef struct {
	// Ticks is the number of scheduled runs (default 1).
	Ticks int
	// Interval is the wall-clock spacing between run launches; 0 launches
	// back-to-back.
	Interval time.Duration
	// MaxConcurrent bounds the runs in flight at once (default 1).
	MaxConcurrent int
	// Retries is the per-run retry budget: a failed run is re-executed up
	// to this many extra times before counting as failed.
	Retries int
	// Rate is a token-bucket budget on run launches per second; 0 means
	// unlimited. Burst is the bucket depth (default 1 when Rate > 0).
	Rate  float64
	Burst int
}

// validate normalises the campaign header.
func (c *CampaignDef) validate() error {
	if c.Ticks == 0 {
		c.Ticks = 1
	}
	if c.Ticks < 1 || c.Ticks > MaxTicks {
		return fmt.Errorf("scenario: campaign: ticks %d out of range [1,%d]", c.Ticks, MaxTicks)
	}
	if c.Interval < 0 {
		return fmt.Errorf("scenario: campaign: negative interval")
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 1
	}
	if c.MaxConcurrent < 1 || c.MaxConcurrent > MaxConcurrentRuns {
		return fmt.Errorf("scenario: campaign: max-concurrent %d out of range [1,%d]", c.MaxConcurrent, MaxConcurrentRuns)
	}
	if c.Retries < 0 || c.Retries > MaxRunRetries {
		return fmt.Errorf("scenario: campaign: retries %d out of range [0,%d]", c.Retries, MaxRunRetries)
	}
	if c.Rate < 0 {
		return fmt.Errorf("scenario: campaign: negative rate")
	}
	if c.Burst == 0 && c.Rate > 0 {
		c.Burst = 1
	}
	if c.Burst < 0 || c.Burst > MaxRateBurst {
		return fmt.Errorf("scenario: campaign: burst %d out of range [0,%d]", c.Burst, MaxRateBurst)
	}
	if c.Burst > 0 && c.Rate == 0 {
		return fmt.Errorf("scenario: campaign: burst without rate")
	}
	return nil
}

// PlatformDef describes one resolution platform stanza.
type PlatformDef struct {
	Name    string
	Caches  int // hidden caches n (default 1)
	Ingress int // ingress IPs (default 1)
	Egress  int // egress IPs (default 1)
	// Selector is the load-balancing policy: random, round-robin,
	// hash-qname or hash-source-ip (default random).
	Selector string
	// EgressPolicy picks the egress IP per upstream query: random,
	// round-robin or per-cache (default random).
	EgressPolicy string
	// MinTTL/MaxTTL/Capacity form the per-cache TTL/eviction policy;
	// zero values leave the platform defaults.
	MinTTL, MaxTTL time.Duration
	Capacity       int
	// LinkOneWay/LinkJitter/LinkLoss shape the client↔platform link
	// (defaults 2ms / 0 / 0).
	LinkOneWay time.Duration
	LinkJitter time.Duration
	LinkLoss   float64
	// Faults is the link's deterministic fault profile, in the
	// netsim.ParseFaultProfile grammar; FaultsSpec preserves the source
	// text for report echoes. Nil means a clean link.
	Faults     *netsim.FaultProfile
	FaultsSpec string
	// ForwardTo names an earlier-declared platform used as this
	// platform's upstream forwarder (§VI); empty means the platform
	// resolves iteratively from the roots.
	ForwardTo string
}

// WorkloadDef describes one probe workload stanza.
type WorkloadDef struct {
	// Kind is the probing technique; see the Kind constants.
	Kind Kind
	// Platform names the target platform; default is the first one.
	Platform string
	// Queries is the probe budget q; 0 uses the core default.
	Queries int
	// Replicates is the carpet-bombing floor K; 0 means 1.
	Replicates int
	// Compensated switches the direct workload to the §V-B
	// loss-compensated loop (only valid for kind direct).
	Compensated bool
	// Clients is the web-client population for kind adnet (default 8).
	Clients int
}

// Validate checks cross-stanza invariants and applies defaults; Parse
// calls it, so a parsed scenario is always valid. It is exported for
// programmatically built scenarios.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing $SCENARIO directive")
	}
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario: bad name %q (want %s)", s.Name, nameRE)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Trials == 0 {
		s.Trials = 3
	}
	if s.Trials < 1 || s.Trials > MaxTrials {
		return fmt.Errorf("scenario: $TRIALS %d out of range [1,%d]", s.Trials, MaxTrials)
	}
	if len(s.Platforms) == 0 {
		return fmt.Errorf("scenario: no platform stanza")
	}
	if len(s.Platforms) > MaxPlatforms {
		return fmt.Errorf("scenario: %d platforms exceed the limit of %d", len(s.Platforms), MaxPlatforms)
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario: no workload stanza")
	}
	if len(s.Workloads) > MaxWorkloads {
		return fmt.Errorf("scenario: %d workloads exceed the limit of %d", len(s.Workloads), MaxWorkloads)
	}
	if s.Campaign != nil {
		if err := s.Campaign.validate(); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for i := range s.Platforms {
		p := &s.Platforms[i]
		if err := p.validate(seen); err != nil {
			return err
		}
		seen[p.Name] = true
	}
	for i := range s.Workloads {
		if err := s.Workloads[i].validate(s.Platforms); err != nil {
			return err
		}
	}
	return nil
}

// validate normalises one platform stanza; earlier holds the platforms
// declared before it (forward targets must already exist).
func (p *PlatformDef) validate(earlier map[string]bool) error {
	if !nameRE.MatchString(p.Name) {
		return fmt.Errorf("scenario: bad platform name %q (want %s)", p.Name, nameRE)
	}
	if earlier[p.Name] {
		return fmt.Errorf("scenario: duplicate platform %q", p.Name)
	}
	if p.Caches == 0 {
		p.Caches = 1
	}
	if p.Ingress == 0 {
		p.Ingress = 1
	}
	if p.Egress == 0 {
		p.Egress = 1
	}
	if p.Caches < 1 || p.Caches > MaxCaches {
		return fmt.Errorf("scenario: platform %s: caches %d out of range [1,%d]", p.Name, p.Caches, MaxCaches)
	}
	if p.Ingress < 1 || p.Ingress > MaxAddrs {
		return fmt.Errorf("scenario: platform %s: ingress %d out of range [1,%d]", p.Name, p.Ingress, MaxAddrs)
	}
	if p.Egress < 1 || p.Egress > MaxAddrs {
		return fmt.Errorf("scenario: platform %s: egress %d out of range [1,%d]", p.Name, p.Egress, MaxAddrs)
	}
	if p.Selector == "" {
		p.Selector = "random"
	}
	if !slices.Contains(loadbal.Names(), p.Selector) {
		return fmt.Errorf("scenario: platform %s: unknown selector %q", p.Name, p.Selector)
	}
	if p.EgressPolicy == "" {
		p.EgressPolicy = "random"
	}
	if !egressPolicyNames[p.EgressPolicy] {
		return fmt.Errorf("scenario: platform %s: unknown egress-policy %q", p.Name, p.EgressPolicy)
	}
	if p.MinTTL < 0 || p.MaxTTL < 0 || (p.MaxTTL > 0 && p.MinTTL > p.MaxTTL) {
		return fmt.Errorf("scenario: platform %s: bad TTL policy min=%v max=%v", p.Name, p.MinTTL, p.MaxTTL)
	}
	if p.Capacity < 0 {
		return fmt.Errorf("scenario: platform %s: negative capacity", p.Name)
	}
	if p.LinkOneWay == 0 {
		p.LinkOneWay = 2 * time.Millisecond
	}
	if p.LinkOneWay < 0 || p.LinkJitter < 0 {
		return fmt.Errorf("scenario: platform %s: negative link timing", p.Name)
	}
	if p.LinkLoss < 0 || p.LinkLoss >= 1 {
		return fmt.Errorf("scenario: platform %s: loss %v out of range [0,1)", p.Name, p.LinkLoss)
	}
	if p.ForwardTo != "" {
		if p.ForwardTo == p.Name {
			return fmt.Errorf("scenario: platform %s forwards to itself", p.Name)
		}
		if !earlier[p.ForwardTo] {
			return fmt.Errorf("scenario: platform %s forwards to %q, which is not an earlier-declared platform", p.Name, p.ForwardTo)
		}
	}
	return nil
}

// validate normalises one workload stanza against the platform list.
func (w *WorkloadDef) validate(platforms []PlatformDef) error {
	switch w.Kind {
	case KindDirect, KindChain, KindHierarchy, KindTiming, KindSMTP, KindAdnet:
	default:
		return fmt.Errorf("scenario: unknown workload kind %q", w.Kind)
	}
	if w.Platform == "" {
		w.Platform = platforms[0].Name
	}
	found := false
	for _, p := range platforms {
		if p.Name == w.Platform {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("scenario: workload %s targets unknown platform %q", w.Kind, w.Platform)
	}
	if w.Queries < 0 || w.Queries > MaxQueries {
		return fmt.Errorf("scenario: workload %s: queries %d out of range [0,%d]", w.Kind, w.Queries, MaxQueries)
	}
	if w.Replicates < 0 || w.Replicates > MaxReplicate {
		return fmt.Errorf("scenario: workload %s: replicates %d out of range [0,%d]", w.Kind, w.Replicates, MaxReplicate)
	}
	if w.Compensated && w.Kind != KindDirect {
		return fmt.Errorf("scenario: workload %s: compensated is only valid for kind direct", w.Kind)
	}
	if w.Clients != 0 && w.Kind != KindAdnet {
		return fmt.Errorf("scenario: workload %s: clients is only valid for kind adnet", w.Kind)
	}
	if w.Kind == KindAdnet {
		if w.Clients == 0 {
			w.Clients = 8
		}
		if w.Clients < 1 || w.Clients > MaxClients {
			return fmt.Errorf("scenario: workload adnet: clients %d out of range [1,%d]", w.Clients, MaxClients)
		}
	}
	return nil
}

// Format renders the scenario back into its canonical source text. A
// validated scenario round-trips: Parse(Format(s)) is semantically equal
// to s (the fuzz harness holds this invariant).
func (s *Scenario) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "$SCENARIO %s\n$SEED %d\n$TRIALS %d\n", s.Name, s.Seed, s.Trials)
	if c := s.Campaign; c != nil {
		sb.WriteString("\ncampaign (\n")
		fmt.Fprintf(&sb, "    ticks %d\n", c.Ticks)
		if c.Interval > 0 {
			fmt.Fprintf(&sb, "    interval %s\n", c.Interval)
		}
		fmt.Fprintf(&sb, "    max-concurrent %d\n", c.MaxConcurrent)
		if c.Retries > 0 {
			fmt.Fprintf(&sb, "    retries %d\n", c.Retries)
		}
		if c.Rate > 0 {
			fmt.Fprintf(&sb, "    rate %g burst=%d\n", c.Rate, c.Burst)
		}
		sb.WriteString(")\n")
	}
	for _, p := range s.Platforms {
		fmt.Fprintf(&sb, "\nplatform %s (\n", p.Name)
		fmt.Fprintf(&sb, "    caches %d\n    ingress %d\n    egress %d\n", p.Caches, p.Ingress, p.Egress)
		fmt.Fprintf(&sb, "    selector %s\n    egress-policy %s\n", p.Selector, p.EgressPolicy)
		if p.MinTTL > 0 {
			fmt.Fprintf(&sb, "    min-ttl %s\n", p.MinTTL)
		}
		if p.MaxTTL > 0 {
			fmt.Fprintf(&sb, "    max-ttl %s\n", p.MaxTTL)
		}
		if p.Capacity > 0 {
			fmt.Fprintf(&sb, "    capacity %d\n", p.Capacity)
		}
		fmt.Fprintf(&sb, "    link oneway=%s jitter=%s loss=%g\n", p.LinkOneWay, p.LinkJitter, p.LinkLoss)
		if p.Faults != nil {
			// FaultsSpec preserves the source token so Format is an exact
			// textual fixpoint; fall back to the normalized rendering for
			// scenarios built programmatically.
			spec := p.FaultsSpec
			if spec == "" {
				spec = p.Faults.String()
			}
			fmt.Fprintf(&sb, "    faults %s\n", spec)
		}
		if p.ForwardTo != "" {
			fmt.Fprintf(&sb, "    forward %s\n", p.ForwardTo)
		}
		sb.WriteString(")\n")
	}
	for _, w := range s.Workloads {
		fmt.Fprintf(&sb, "\nworkload %s (\n", w.Kind)
		fmt.Fprintf(&sb, "    platform %s\n", w.Platform)
		if w.Queries > 0 {
			fmt.Fprintf(&sb, "    queries %d\n", w.Queries)
		}
		if w.Replicates > 0 {
			fmt.Fprintf(&sb, "    replicates %d\n", w.Replicates)
		}
		if w.Compensated {
			sb.WriteString("    compensated\n")
		}
		if w.Kind == KindAdnet {
			fmt.Fprintf(&sb, "    clients %d\n", w.Clients)
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}
