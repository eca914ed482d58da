package des

import (
	"testing"
	"time"
)

// recorder logs (now, op) pairs as events fire.
type recorder struct {
	fired []struct {
		at Time
		op uint8
	}
}

func (r *recorder) Fire(now Time, op uint8) {
	r.fired = append(r.fired, struct {
		at Time
		op uint8
	}{now, op})
}

func TestDispatchOrder(t *testing.T) {
	s := NewScheduler()
	r := &recorder{}
	s.Schedule(30*time.Millisecond, r, 3)
	s.Schedule(10*time.Millisecond, r, 1)
	s.Schedule(20*time.Millisecond, r, 2)
	s.Schedule(10*time.Millisecond, r, 4) // same instant as op 1, scheduled later
	if n := s.Run(); n != 4 {
		t.Fatalf("Run dispatched %d events, want 4", n)
	}
	wantOps := []uint8{1, 4, 2, 3}
	wantAt := []Time{
		Time(10 * time.Millisecond), Time(10 * time.Millisecond),
		Time(20 * time.Millisecond), Time(30 * time.Millisecond),
	}
	for i, f := range r.fired {
		if f.op != wantOps[i] || f.at != wantAt[i] {
			t.Errorf("event %d = (op %d at %v), want (op %d at %v)", i, f.op, f.at, wantOps[i], wantAt[i])
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

// chainer reschedules itself op times, modelling an event chain.
type chainer struct {
	s     *Scheduler
	fires int
}

func (c *chainer) Fire(now Time, op uint8) {
	c.fires++
	if op > 0 {
		c.s.Schedule(time.Millisecond, c, op-1)
	}
}

func TestChainedEventsFromWithinFire(t *testing.T) {
	s := NewScheduler()
	c := &chainer{s: s}
	s.Schedule(0, c, 5)
	if n := s.Run(); n != 6 {
		t.Fatalf("dispatched %d, want 6 (chain of 5 reschedules)", n)
	}
	if s.Now() != Time(5*time.Millisecond) {
		t.Errorf("Now = %v, want 5ms", s.Now())
	}
}

// sameInstant schedules a follow-up at the SAME timestamp; it must fire
// after everything already queued at that instant.
type sameInstant struct {
	s     *Scheduler
	order *[]uint8
}

func (a *sameInstant) Fire(now Time, op uint8) {
	*a.order = append(*a.order, op)
	if op == 1 {
		a.s.Schedule(0, a, 9)
	}
}

func TestSameInstantFollowUpFiresAfterBatch(t *testing.T) {
	s := NewScheduler()
	var order []uint8
	a := &sameInstant{s: s, order: &order}
	s.Schedule(time.Millisecond, a, 1)
	s.Schedule(time.Millisecond, a, 2)
	s.Run()
	want := []uint8{1, 2, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleAtClampsToNow(t *testing.T) {
	s := NewScheduler()
	r := &recorder{}
	s.Schedule(10*time.Millisecond, r, 1)
	s.Run()
	s.ScheduleAt(Time(5*time.Millisecond), r, 2) // in the past
	s.Run()
	if got := r.fired[1].at; got != Time(10*time.Millisecond) {
		t.Errorf("past event fired at %v, want clamped to 10ms", got)
	}
}

func TestResetRecyclesCapacity(t *testing.T) {
	s := NewScheduler()
	r := &recorder{}
	for i := 0; i < 100; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, r, 0)
	}
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Dispatched() != 0 {
		t.Fatal("Reset must clear pending events, clock and dispatch count")
	}
	s.Schedule(time.Millisecond, r, 7)
	if n := s.Run(); n != 1 {
		t.Fatalf("post-Reset Run dispatched %d, want 1", n)
	}
}

// nopActor is the cheapest possible actor for the allocation guard.
type nopActor struct{}

func (nopActor) Fire(Time, uint8) {}

// TestHotPathAllocationFree is the benchmark guard for the DES hot path:
// after warm-up, schedule + dispatch must not allocate — the same
// contract the //cdelint:hotpath annotations enforce statically.
func TestHotPathAllocationFree(t *testing.T) {
	s := NewScheduler()
	var a nopActor
	// Warm the heap and batch buffers past the steady-state working set.
	for i := 0; i < 256; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, a, 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			s.Schedule(time.Duration(i)*time.Microsecond, a, uint8(i))
		}
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("schedule/dispatch allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkScheduleDispatch(b *testing.B) {
	s := NewScheduler()
	var a nopActor
	for i := 0; i < 256; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, a, 0)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, a, 0)
		s.Run()
	}
}
