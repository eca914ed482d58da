package netsim

import (
	"net/netip"
	"testing"
)

// TestCheckpointSourcesCanonicalOrder asserts the source dump is sorted
// by address (and each flow list by destination) regardless of creation
// order — the canonical-bytes property snapshot comparison rests on.
func TestCheckpointSourcesCanonicalOrder(t *testing.T) {
	n := New(1)
	addrs := []string{"10.30.0.9", "10.30.0.1", "10.30.0.5"}
	for _, a := range addrs {
		lr := n.srcRand(netip.MustParseAddr(a))
		lr.rng.Int63() // advance so Draws is nonzero
	}
	states := n.CheckpointSources()
	if len(states) != len(addrs) {
		t.Fatalf("%d sources, want %d", len(states), len(addrs))
	}
	for i := 1; i < len(states); i++ {
		if !states[i-1].Addr.Less(states[i].Addr) {
			t.Errorf("sources out of order: %v before %v", states[i-1].Addr, states[i].Addr)
		}
	}
	for _, st := range states {
		if st.Draws != 1 {
			t.Errorf("source %v draws = %d, want 1", st.Addr, st.Draws)
		}
	}
}

// TestRestoreSourcesReplaysStreams asserts a restored source stream
// continues exactly where the original left off: capture after k draws,
// restore into a fresh network, and the next draws match the original
// stream's k+1th, k+2th, ... values.
func TestRestoreSourcesReplaysStreams(t *testing.T) {
	src := netip.MustParseAddr("10.30.0.1")
	orig := New(42)
	lr := orig.srcRand(src)
	for i := 0; i < 13; i++ {
		lr.rng.Int63()
	}
	states := orig.CheckpointSources()

	fresh := New(42)
	if err := fresh.RestoreSources(states); err != nil {
		t.Fatalf("RestoreSources: %v", err)
	}
	a, b := orig.srcRand(src), fresh.srcRand(src)
	for i := 0; i < 20; i++ {
		if va, vb := a.rng.Int63(), b.rng.Int63(); va != vb {
			t.Fatalf("draw %d after restore: %d, original stream %d", i, vb, va)
		}
	}
}
