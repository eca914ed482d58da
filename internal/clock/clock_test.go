package clock

import (
	"sync"
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestVirtualStartsAtFixedEpoch(t *testing.T) {
	a, b := NewVirtual(), NewVirtual()
	if !a.Now().Equal(b.Now()) {
		t.Error("two virtual clocks start at different times")
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	t0 := v.Now()
	v.Advance(90 * time.Second)
	if got := v.Now().Sub(t0); got != 90*time.Second {
		t.Errorf("advanced %v, want 90s", got)
	}
}

func TestVirtualAdvanceNegativeIgnored(t *testing.T) {
	v := NewVirtual()
	t0 := v.Now()
	v.Advance(-time.Hour)
	if !v.Now().Equal(t0) {
		t.Error("negative advance moved the clock")
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual()
	t0 := v.Now()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Advance(time.Millisecond)
			_ = v.Now()
		}()
	}
	wg.Wait()
	if got := v.Now().Sub(t0); got != 50*time.Millisecond {
		t.Errorf("concurrent advances sum to %v, want 50ms", got)
	}
}
