package netsim

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// GilbertElliott is the classic two-state Markov burst-loss model: the
// channel alternates between a Good and a Bad state, each with its own
// per-packet loss probability. Real Internet loss is bursty — a congested
// queue drops trains of packets, not independent coins — which is exactly
// the regime where the paper's §V-B loss-boosted replication matters: K
// replicates sent back-to-back into a burst can all die together, so
// measured (not assumed-i.i.d.) loss rates drive the compensation.
//
// The stationary loss rate is
//
//	πB·LossBad + (1-πB)·LossGood, where πB = PGoodBad/(PGoodBad+PBadGood).
type GilbertElliott struct {
	// PGoodBad is the per-packet probability of transitioning Good→Bad.
	PGoodBad float64
	// PBadGood is the per-packet probability of transitioning Bad→Good;
	// its inverse is the mean burst length in packets.
	PBadGood float64
	// LossGood is the per-packet loss probability in the Good state.
	LossGood float64
	// LossBad is the per-packet loss probability in the Bad state.
	LossBad float64
}

// enabled reports whether the chain does anything at all.
func (ge GilbertElliott) enabled() bool {
	return ge != GilbertElliott{}
}

// MeanLoss returns the stationary packet-loss rate of the chain.
func (ge GilbertElliott) MeanLoss() float64 {
	if !ge.enabled() {
		return 0
	}
	denom := ge.PGoodBad + ge.PBadGood
	if denom == 0 {
		// No transitions: the chain stays in Good forever.
		return ge.LossGood
	}
	piBad := ge.PGoodBad / denom
	return piBad*ge.LossBad + (1-piBad)*ge.LossGood
}

// BurstLoss builds a Gilbert–Elliott chain with the given stationary loss
// rate and mean burst length (in packets). Losses only occur in the Bad
// state (LossBad=1, LossGood=0), the most common simplified
// parameterisation. rate must be in [0,1) and meanBurst >= 1.
func BurstLoss(rate float64, meanBurst float64) GilbertElliott {
	if rate <= 0 {
		return GilbertElliott{}
	}
	if meanBurst < 1 {
		meanBurst = 1
	}
	pBG := 1 / meanBurst
	// Stationary Bad-state occupancy must equal rate:
	//   PGB/(PGB+PBG) = rate  =>  PGB = rate·PBG/(1-rate).
	pGB := rate * pBG / (1 - rate)
	return GilbertElliott{PGoodBad: pGB, PBadGood: pBG, LossBad: 1}
}

// OutageWindow schedules a transient outage of a host, expressed in the
// per-flow exchange counter: the destination is unreachable for the
// half-open window [Start, End) of exchanges arriving on a given
// (source → destination) flow. Flow-relative indices keep the schedule
// deterministic under concurrency — a wall-clock or global-counter window
// would fire on a scheduling-dependent set of probes.
type OutageWindow struct {
	Start int
	End   int
}

func (w OutageWindow) contains(n int) bool { return n >= w.Start && n < w.End }

// FaultProfile describes the deterministic fault behaviour of one link
// beyond the base LinkProfile (Bernoulli loss + jitter). Attach one via
// LinkProfile.Faults. All randomness is drawn from the per-source splitmix64
// RNG streams, so fault sequences are a pure function of (network seed,
// source address, flow history) and TestWorkersInvariance-style
// byte-identical parallelism still holds.
//
// BurstLoss applies to whichever side of the exchange carries it (a client
// link or a server link); the remaining faults model server-side
// misbehaviour and are honoured from the destination's profile only.
type FaultProfile struct {
	// BurstLoss replaces the profile's Bernoulli Loss with a Gilbert–
	// Elliott chain (per flow, per side) when enabled.
	BurstLoss GilbertElliott

	// ServFailRate / RefusedRate are probabilities that the destination
	// short-circuits a query with an injected SERVFAIL / REFUSED response
	// instead of invoking its handler — the resolver-side failures the
	// paper's probes must classify as "probe failed", not "cache absent".
	ServFailRate float64
	RefusedRate  float64

	// TruncateRate is the probability that a UDP response is truncated in
	// flight: the answer sections are stripped and the TC bit set, forcing
	// clients that care to re-ask over TCP (udpnet's FallbackTCP path).
	// TCP exchanges (Conn.TCP) are immune.
	TruncateRate float64

	// DuplicateRate is the probability that the query packet is duplicated
	// in flight so the destination handler serves it twice. The duplicate's
	// response is discarded, but its side effects — cache fills, arrivals
	// at the authoritative NS — persist, inflating the paper's ω if the
	// enumeration does not deduplicate.
	DuplicateRate float64

	// LateRate is the probability that the response arrives after the
	// client's retransmission timer: the client observes a timeout (and is
	// charged the full timeout), yet the handler ran, so server-side
	// effects persist exactly as for a duplicate.
	LateRate float64

	// Outages lists scheduled transient outages in per-flow exchange
	// indices; during a window the destination behaves as if down
	// (queries vanish, the client times out).
	Outages []OutageWindow
}

// ParseFaultProfile parses a CLI fault specification of comma-separated
// key=value terms:
//
//	burst=RATE[:MEANBURST]  Gilbert–Elliott burst loss (default burst 4 pkts)
//	servfail=RATE           injected SERVFAIL responses
//	refused=RATE            injected REFUSED responses
//	truncate=RATE           truncated (TC-bit) UDP responses
//	duplicate=RATE          duplicated query delivery
//	late=RATE               responses arriving after the client timer
//	outage=START+LEN        host down for exchanges [START, START+LEN)
//
// e.g. "burst=0.11:4,servfail=0.02,outage=10+20". An empty spec returns
// (nil, nil).
func ParseFaultProfile(spec string) (*FaultProfile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	fp := &FaultProfile{}
	for _, term := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return nil, fmt.Errorf("netsim: fault term %q: want key=value", term)
		}
		switch key {
		case "burst":
			rateStr, burstStr, hasBurst := strings.Cut(val, ":")
			rate, err := parseRate(key, rateStr)
			if err != nil {
				return nil, err
			}
			mean := 4.0
			if hasBurst {
				mean, err = strconv.ParseFloat(burstStr, 64)
				if err != nil || mean < 1 {
					return nil, fmt.Errorf("netsim: fault term burst=%s: mean burst must be a number >= 1", val)
				}
			}
			fp.BurstLoss = BurstLoss(rate, mean)
		case "servfail":
			rate, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			fp.ServFailRate = rate
		case "refused":
			rate, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			fp.RefusedRate = rate
		case "truncate":
			rate, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			fp.TruncateRate = rate
		case "duplicate":
			rate, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			fp.DuplicateRate = rate
		case "late":
			rate, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			fp.LateRate = rate
		case "outage":
			startStr, lenStr, ok := strings.Cut(val, "+")
			if !ok {
				return nil, fmt.Errorf("netsim: fault term outage=%s: want START+LEN", val)
			}
			start, err1 := strconv.Atoi(startStr)
			length, err2 := strconv.Atoi(lenStr)
			if err1 != nil || err2 != nil || start < 0 || length <= 0 {
				return nil, fmt.Errorf("netsim: fault term outage=%s: want non-negative START and positive LEN", val)
			}
			fp.Outages = append(fp.Outages, OutageWindow{Start: start, End: start + length})
		default:
			return nil, fmt.Errorf("netsim: unknown fault key %q", key)
		}
	}
	sort.Slice(fp.Outages, func(i, j int) bool { return fp.Outages[i].Start < fp.Outages[j].Start })
	return fp, nil
}

func parseRate(key, val string) (float64, error) {
	rate, err := strconv.ParseFloat(val, 64)
	if err != nil || rate < 0 || rate > 1 {
		return 0, fmt.Errorf("netsim: fault term %s=%s: want a rate in [0,1]", key, val)
	}
	return rate, nil
}

// String renders the profile in the ParseFaultProfile syntax.
func (fp *FaultProfile) String() string {
	if fp == nil {
		return ""
	}
	var terms []string
	if fp.BurstLoss.enabled() {
		mean := 1.0
		if fp.BurstLoss.PBadGood > 0 {
			mean = 1 / fp.BurstLoss.PBadGood
		}
		terms = append(terms, fmt.Sprintf("burst=%.4g:%.4g", fp.BurstLoss.MeanLoss(), mean))
	}
	if fp.ServFailRate > 0 {
		terms = append(terms, fmt.Sprintf("servfail=%.4g", fp.ServFailRate))
	}
	if fp.RefusedRate > 0 {
		terms = append(terms, fmt.Sprintf("refused=%.4g", fp.RefusedRate))
	}
	if fp.TruncateRate > 0 {
		terms = append(terms, fmt.Sprintf("truncate=%.4g", fp.TruncateRate))
	}
	if fp.DuplicateRate > 0 {
		terms = append(terms, fmt.Sprintf("duplicate=%.4g", fp.DuplicateRate))
	}
	if fp.LateRate > 0 {
		terms = append(terms, fmt.Sprintf("late=%.4g", fp.LateRate))
	}
	for _, w := range fp.Outages {
		terms = append(terms, fmt.Sprintf("outage=%d+%d", w.Start, w.End-w.Start))
	}
	return strings.Join(terms, ",")
}

// flowState is the per-(source → destination) fault state held inside the
// source's lockedRand: the flow's exchange counter (driving outage windows)
// and the Gilbert–Elliott chain states for each side of the path. Keeping
// it keyed by source preserves the per-source determinism contract.
type flowState struct {
	n      int  // exchanges attempted on this flow so far
	srcBad bool // GE chain state of the source-side link
	dstBad bool // GE chain state of the destination-side link
}

// flow returns (creating on first use) the fault state for dst. Caller
// must be the goroutine owning this source stream, same as for roll().
func (lr *lockedRand) flow(dst netip.Addr) *flowState {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.flows == nil {
		//cdelint:allow hotalloc flow map created once per source stream
		lr.flows = make(map[netip.Addr]*flowState)
	}
	fs, ok := lr.flows[dst]
	if !ok {
		//cdelint:allow hotalloc per-flow fault state allocated once per (src,dst) pair, then cached
		fs = &flowState{}
		lr.flows[dst] = fs
	}
	return fs
}

// nextFlowIdx returns the flow's current exchange index and advances the
// counter; outage windows are expressed in these indices.
func (lr *lockedRand) nextFlowIdx(fs *flowState) int {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	idx := fs.n
	fs.n++
	return idx
}

// geStep advances a Gilbert–Elliott chain one packet and reports whether
// that packet is lost. Exactly two draws per step (transition, loss) keep
// the consumed stream length a pure function of the flow's packet count.
func (lr *lockedRand) geStep(state *bool, ge GilbertElliott) bool {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if *state {
		if lr.rng.Float64() < ge.PBadGood {
			*state = false
		}
	} else {
		if lr.rng.Float64() < ge.PGoodBad {
			*state = true
		}
	}
	p := ge.LossGood
	if *state {
		p = ge.LossBad
	}
	return lr.rng.Float64() < p
}

// lostPacket evaluates one side's per-packet loss for one direction:
// the link's burst chain when faulted, the Bernoulli profile loss
// otherwise. With no FaultProfile attached this consumes exactly one
// draw, matching the pre-fault-layer stream layout byte for byte.
func (lr *lockedRand) lostPacket(fs *flowState, p LinkProfile, srcSide bool) bool {
	if p.Faults != nil && p.Faults.BurstLoss.enabled() {
		state := &fs.dstBad
		if srcSide {
			state = &fs.srcBad
		}
		return lr.geStep(state, p.Faults.BurstLoss)
	}
	return lr.roll() < p.Loss
}

// inOutage reports whether exchange index n of a flow falls inside any
// scheduled outage window.
func inOutage(windows []OutageWindow, n int) bool {
	for _, w := range windows {
		if w.contains(n) {
			return true
		}
	}
	return false
}

// FaultKind names one injected-fault flavour. It is a closed enum: the
// exhaustive analyzer makes every switch over FaultKind account for all
// members, so adding a fault here surfaces every counter and dispatch
// site that must learn about it.
type FaultKind string

// Fault kinds; each is counted in a "netsim.faults.*" registry counter
// (see SetMetrics).
const (
	FaultServFail  FaultKind = "servfail"
	FaultRefused   FaultKind = "refused"
	FaultTruncate  FaultKind = "truncate"
	FaultDuplicate FaultKind = "duplicate"
	FaultLate      FaultKind = "late"
	FaultOutage    FaultKind = "outage"
)
