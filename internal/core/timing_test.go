package core

import (
	"context"
	"testing"
	"time"
)

func TestDurMedian(t *testing.T) {
	tests := []struct {
		in   []time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[]time.Duration{5}, 5},
		{[]time.Duration{1, 3}, 2},
		{[]time.Duration{9, 1, 5}, 5},
		// Even length: mean of the middle pair, integer-truncated.
		{[]time.Duration{4, 1, 3, 2}, 2},
	}
	for _, tt := range tests {
		if got := durMedian(tt.in); got != tt.want {
			t.Errorf("durMedian(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
	// Input must not be mutated.
	in := []time.Duration{3, 1, 2}
	_ = durMedian(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("durMedian mutated its input")
	}
}

func TestMidpointThreshold(t *testing.T) {
	cached := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond}
	uncached := []time.Duration{20 * time.Millisecond, 30 * time.Millisecond}
	got := MidpointThreshold(cached, uncached)
	want := (3*time.Millisecond + 25*time.Millisecond) / 2
	if got != want {
		t.Errorf("MidpointThreshold = %v, want %v", got, want)
	}
}

func TestKMeansThreshold(t *testing.T) {
	cached := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 2500 * time.Microsecond}
	uncached := []time.Duration{20 * time.Millisecond, 21 * time.Millisecond, 22 * time.Millisecond}
	got := KMeansThreshold(cached, uncached)
	if got < 3*time.Millisecond || got > 20*time.Millisecond {
		t.Errorf("KMeansThreshold = %v, not between clusters", got)
	}
}

func TestKMeansThresholdDegenerate(t *testing.T) {
	if got := KMeansThreshold(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	same := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond}
	if got := KMeansThreshold(same, nil); got != 5*time.Millisecond {
		t.Errorf("identical samples = %v", got)
	}
}

func TestTimingDirectWithJitter(t *testing.T) {
	// Jitter below the upstream separation must not confuse the count.
	w := newTestWorld(t)
	// Rebuild a platform with jitter on its links.
	plat := w.newPlatform(t, platformOpts{caches: 3})
	_ = plat
	res, err := EnumerateTimingDirect(context.Background(), w.directProber(plat), w.infra, TimingOptions{
		CountProbes: RecommendedQueries(3, 0.999),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Caches != 3 {
		t.Errorf("measured %d caches", res.Caches)
	}
	if len(res.CountRTTs) == 0 || len(res.CachedRTTs) == 0 {
		t.Error("missing RTT samples")
	}
}

func TestTimingOptionsDefaults(t *testing.T) {
	o := TimingOptions{}.withDefaults()
	if o.CountProbes == 0 || o.Threshold == nil {
		t.Errorf("defaults incomplete: %+v", o)
	}
	// The direct run spends the paper's 100 seed queries, 16 calibration
	// samples per latency class, then the counting budget.
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 1})
	res, err := EnumerateTimingDirect(context.Background(), w.directProber(plat), w.infra, TimingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 + 2*16 + o.CountProbes; res.ProbesSent != want {
		t.Errorf("probes = %d, want %d", res.ProbesSent, want)
	}
}
