// Package clock abstracts time so the simulated Internet (and the DNS
// caches' TTL arithmetic) can run on a deterministic virtual clock during
// experiments and tests, and on the wall clock when the CDE tools are used
// against real resolvers over UDP.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time.
type Clock interface {
	Now() time.Time
}

// Real is a Clock backed by the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Virtual is a manually-advanced Clock. The zero value is not usable; use
// NewVirtual. Virtual is safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at a fixed, arbitrary epoch
// so runs are reproducible.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Date(2017, time.June, 26, 0, 0, 0, 0, time.UTC)}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d. Negative durations are ignored so
// the clock is monotone.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
}
