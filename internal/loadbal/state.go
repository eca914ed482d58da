package loadbal

import "fmt"

// State is the serializable position of a selector's strategy: the
// round-robin cursor or the RNG stream position, tagged with the strategy
// name so a restore into a differently configured selector is rejected
// instead of silently corrupting the chain. Key-dependent strategies are
// stateless and carry only the tag.
type State struct {
	Kind  string `json:"kind"`
	Pos   int    `json:"pos,omitempty"`
	Draws uint64 `json:"draws,omitempty"`
}

// CaptureState snapshots a selector's chain position. The Instrumented
// decorator is transparently unwrapped (its counters live in the metrics
// registry, which is checkpointed separately). The second result is false
// for selector implementations this package does not know how to persist.
func CaptureState(s Selector) (State, bool) {
	if w, ok := s.(*Instrumented); ok {
		s = w.Unwrap()
	}
	switch sel := s.(type) {
	case *RoundRobin:
		sel.mu.Lock()
		defer sel.mu.Unlock()
		return State{Kind: sel.Name(), Pos: sel.next}, true
	case *Random:
		sel.mu.Lock()
		defer sel.mu.Unlock()
		return State{Kind: sel.Name(), Draws: sel.src.Draws()}, true
	case HashQName, HashSourceIP:
		return State{Kind: s.Name()}, true
	default:
		return State{}, false
	}
}

// RestoreState repositions a selector at a captured chain position. The
// selector must be the same strategy the state was captured from (same
// Kind); the fresh selector is assumed to have been constructed with the
// same seed, so restoring reduces to fast-forwarding the stream or cursor.
func RestoreState(s Selector, st State) error {
	if w, ok := s.(*Instrumented); ok {
		s = w.Unwrap()
	}
	if got := s.Name(); got != st.Kind {
		return fmt.Errorf("loadbal: restore: selector is %q, state is for %q", got, st.Kind)
	}
	switch sel := s.(type) {
	case *RoundRobin:
		sel.mu.Lock()
		defer sel.mu.Unlock()
		sel.next = st.Pos
	case *Random:
		sel.mu.Lock()
		defer sel.mu.Unlock()
		sel.src.SkipTo(st.Draws)
	case HashQName, HashSourceIP:
		// Stateless.
	default:
		return fmt.Errorf("loadbal: restore: selector %q has no persistable state", s.Name())
	}
	return nil
}
