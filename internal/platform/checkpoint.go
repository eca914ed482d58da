package platform

import (
	"fmt"

	"dnscde/internal/loadbal"
)

// CheckpointState is the serializable mutable state of one platform,
// excluding its caches (checkpointed individually per cache): the load-
// balancer chain position, the egress round-robin cursor and RNG stream
// position, and the per-cache down flags. Its counters live in the
// metrics registry and are checkpointed with it.
type CheckpointState struct {
	Selector loadbal.State
	EgressRR int
	RNGDraws uint64
	Down     []bool
}

// Checkpoint captures the platform's mutable state. Must be called at a
// quiescent barrier (no queries in flight).
func (p *Platform) Checkpoint() (CheckpointState, error) {
	sel, ok := loadbal.CaptureState(p.cfg.Selector)
	if !ok {
		return CheckpointState{}, fmt.Errorf("platform %s: selector %q is not checkpointable", p.cfg.Name, p.cfg.Selector.Name())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return CheckpointState{
		Selector: sel,
		EgressRR: p.egressRR,
		RNGDraws: p.rngSrc.Draws(),
		Down:     append([]bool(nil), p.down...),
	}, nil
}

// RestoreCheckpoint overlays a captured state onto a freshly constructed
// platform. The platform must have been built from the same Config (same
// name, seed, cache count and selector strategy) — restore repositions
// chains, it does not reconfigure.
func (p *Platform) RestoreCheckpoint(st CheckpointState) error {
	if len(st.Down) != len(p.caches) {
		return fmt.Errorf("platform %s: restore has %d down flags, platform has %d caches", p.cfg.Name, len(st.Down), len(p.caches))
	}
	if err := loadbal.RestoreState(p.cfg.Selector, st.Selector); err != nil {
		return fmt.Errorf("platform %s: %w", p.cfg.Name, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.egressRR = st.EgressRR
	p.rngSrc.SkipTo(st.RNGDraws)
	copy(p.down, st.Down)
	return nil
}
