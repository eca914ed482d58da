package netsim

import (
	"fmt"
	"net/netip"
	"sort"
)

// FlowSnapshot is the serializable fault state of one (source →
// destination) flow: the exchange counter driving outage windows and the
// Gilbert–Elliott chain positions for each side of the path.
type FlowSnapshot struct {
	Dst    netip.Addr
	N      int
	SrcBad bool
	DstBad bool
}

// SourceState is the serializable state of one source address' stream: the
// RNG position (number of values drawn since creation) and the per-
// destination fault-model state. The RNG values themselves are not stored —
// the stream is a pure function of (network seed, address), so position is
// sufficient to reconstruct it exactly.
type SourceState struct {
	Addr  netip.Addr
	Draws uint64
	Flows []FlowSnapshot
}

// CheckpointSources captures every per-source RNG stream and its fault
// state, sorted by source address so the result is canonical: two networks
// that performed the same exchanges produce byte-identical checkpoints
// regardless of worker or shard scheduling. The caller must be at a
// quiescent barrier (no exchanges in flight).
func (n *Network) CheckpointSources() []SourceState {
	var out []SourceState
	n.srcRNGs.Range(func(k, v any) bool {
		lr := v.(*lockedRand)
		lr.mu.Lock()
		st := SourceState{Addr: k.(netip.Addr), Draws: lr.src.Draws()}
		for dst, fs := range lr.flows {
			st.Flows = append(st.Flows, FlowSnapshot{Dst: dst, N: fs.n, SrcBad: fs.srcBad, DstBad: fs.dstBad})
		}
		lr.mu.Unlock()
		sort.Slice(st.Flows, func(i, j int) bool { return st.Flows[i].Dst.Less(st.Flows[j].Dst) })
		out = append(out, st)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// RestoreSources replays captured source streams into the network: each
// stream is recreated from its deterministic (seed, address) derivation and
// fast-forwarded to the recorded draw position, and flow fault state is
// reinstated. Existing streams for the same addresses are repositioned in
// place. Restore must happen at a quiescent barrier, before any new
// exchanges draw from the streams.
func (n *Network) RestoreSources(states []SourceState) error {
	for _, st := range states {
		if !st.Addr.IsValid() {
			return fmt.Errorf("netsim: restore: invalid source address")
		}
		lr := n.srcRand(st.Addr)
		lr.mu.Lock()
		lr.src.SkipTo(st.Draws)
		lr.flows = nil
		if len(st.Flows) > 0 {
			lr.flows = make(map[netip.Addr]*flowState, len(st.Flows))
			for _, f := range st.Flows {
				if !f.Dst.IsValid() {
					lr.mu.Unlock()
					return fmt.Errorf("netsim: restore: invalid flow destination for source %v", st.Addr)
				}
				lr.flows[f.Dst] = &flowState{n: f.N, srcBad: f.SrcBad, dstBad: f.DstBad}
			}
		}
		lr.mu.Unlock()
	}
	return nil
}
