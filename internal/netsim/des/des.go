// Package des is the discrete-event scheduler core of the simulated
// Internet: a time-ordered event heap keyed on simulated time, with
// pooled by-value event records and batched same-instant dispatch.
//
// netsim rewrites every exchange as a chain of events on a Scheduler —
// query departure, delivery at the destination, response arrival — so a
// single event loop can carry millions of concurrent stub clients
// without a goroutine, a mutex or a wall clock anywhere in the loop. The
// design follows the userspace-netstack style (gvisor's pkg/tcpip):
// single-threaded dispatch, explicit simulated time, allocation-free
// steady state.
//
// Determinism contract: events dispatch in strict (time, scheduling
// order) — two events at the same instant fire in the order they were
// scheduled. Given the same initial schedule and the same actor
// behaviour, a run is a pure function of its inputs; there is no
// randomness and no wall-clock reach in this package.
package des

import (
	"time"

	"dnscde/internal/detpar"
)

// Time is a point in simulated time, in nanoseconds since the
// scheduler's epoch. It is not related to any wall clock.
type Time int64

// Add returns t shifted forward by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t − u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the elapsed time since the epoch to a duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Actor receives dispatched events. The opcode echoes what was passed to
// Schedule, so one pooled actor can drive a multi-stage event chain
// (send → deliver → complete) without allocating a closure per stage.
type Actor interface {
	Fire(now Time, op uint8)
}

// event is one pending dispatch. Events live by value inside the
// scheduler's heap and batch slices — the pooled-record design: no
// per-event heap allocation, and slice capacity is recycled across
// Reset cycles and sync.Pool round trips.
type event struct {
	at    Time
	seq   uint64
	op    uint8
	actor Actor
}

// Scheduler is a deterministic single-threaded discrete-event executor.
// It is NOT safe for concurrent use: one goroutine owns a scheduler for
// the duration of a run, which is exactly what makes the dispatch loop
// mutex- and allocation-free. Concurrency across trials comes from
// running independent schedulers (detpar's per-trial fan-out), never
// from sharing one.
type Scheduler struct {
	now Time
	seq uint64
	// heap is a binary min-heap on (at, seq); seq breaks ties so equal
	// timestamps dispatch in scheduling order.
	heap []event
	// batch is the reused buffer drain fills with every event sharing
	// the earliest pending timestamp — batched delivery: all packets
	// landing at one instant are popped together, then fired in order,
	// halving heap traffic under synchronized arrivals.
	batch      []event
	dispatched uint64

	// lane is non-nil when this scheduler is one lane of a
	// ShardedScheduler; it carries the back-pointer the cross-lane send
	// path (SendTo) and the lane-aware accessors below use. Standalone
	// schedulers have a nil lane and behave as a single-lane universe.
	lane *laneLink
}

// laneLink ties a lane scheduler back to its ShardedScheduler.
type laneLink struct {
	ss  *ShardedScheduler
	idx int
}

// Lanes returns the number of event-loop lanes in this scheduler's
// universe: 1 for a standalone scheduler, N for a lane of an N-way
// ShardedScheduler.
func (s *Scheduler) Lanes() int {
	if s.lane == nil {
		return 1
	}
	return len(s.lane.ss.lanes)
}

// LaneIndex returns this scheduler's lane number (0 when standalone).
func (s *Scheduler) LaneIndex() int {
	if s.lane == nil {
		return 0
	}
	return s.lane.idx
}

// LaneFor maps a partition key (netsim uses the xor-folded source or
// destination address) to a lane index via the same splitmix64 mix
// detpar derives its per-index RNG streams from. A standalone scheduler
// always answers 0.
//
//cdelint:hotpath
func (s *Scheduler) LaneFor(key uint64) int {
	if s.lane == nil {
		return 0
	}
	return int(detpar.Mix(key) % uint64(len(s.lane.ss.lanes)))
}

// LaneScheduler returns the scheduler of lane i (itself when standalone).
func (s *Scheduler) LaneScheduler(i int) *Scheduler {
	if s.lane == nil {
		return s
	}
	return s.lane.ss.lanes[i]
}

// SendTo schedules an event on lane `lane` at absolute time `at`. Sends
// to the own lane (and every send on a standalone scheduler) are plain
// ScheduleAt calls; cross-lane sends append to the per-(sender,receiver)
// mailbox, which the receiving lane drains at the next simulated-time
// barrier. Only the goroutine currently running this lane may call it.
//
//cdelint:hotpath
func (s *Scheduler) SendTo(lane int, at Time, a Actor, op uint8) {
	if s.lane == nil || lane == s.lane.idx {
		s.ScheduleAt(at, a, op)
		return
	}
	s.lane.ss.post(s.lane.idx, lane, at, a, op)
}

// runRound dispatches every pending event with timestamp <= at and
// advances the lane clock to at — one lane's share of a sharded barrier
// round. Events an actor schedules at the same instant run in the same
// round; later times stay queued.
//
//cdelint:hotpath
func (s *Scheduler) runRound(at Time) {
	if s.now < at {
		s.now = at
	}
	for len(s.heap) > 0 && s.heap[0].at <= at {
		s.drain()
	}
}

// peek returns the timestamp of the earliest pending event.
func (s *Scheduler) peek() (Time, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// NewScheduler returns an empty scheduler with pre-sized event storage.
func NewScheduler() *Scheduler {
	return &Scheduler{heap: make([]event, 0, 64), batch: make([]event, 0, 16)}
}

// Now returns the current simulated time: the timestamp of the event
// being dispatched, or of the last batch dispatched when idle.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of scheduled, not-yet-dispatched events.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Dispatched returns the total number of events fired since the last
// Reset.
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// Schedule enqueues an event for actor a with opcode op, delay after the
// current simulated time. Negative delays clamp to "now".
//
//cdelint:hotpath
func (s *Scheduler) Schedule(delay time.Duration, a Actor, op uint8) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now.Add(delay), a, op)
}

// ScheduleAt enqueues an event at an absolute simulated time. Times in
// the past clamp to "now", so a chain can schedule against a fixed
// deadline (a retransmission timer armed at send time) without racing
// the clock backwards.
//
//cdelint:hotpath
func (s *Scheduler) ScheduleAt(at Time, a Actor, op uint8) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.heap = append(s.heap, event{at: at, seq: s.seq, op: op, actor: a})
	s.siftUp(len(s.heap) - 1)
}

// Run dispatches events in (time, order) until the queue drains,
// returning the number of events fired. Actors may schedule further
// events from inside Fire; they join the queue in order.
//
//cdelint:hotpath
func (s *Scheduler) Run() uint64 {
	start := s.dispatched
	for s.drain() {
	}
	return s.dispatched - start
}

// drain pops the full batch of events sharing the earliest timestamp
// into the reused batch buffer, then fires them in scheduling order.
// Events scheduled by a firing actor — even at the same instant — land
// after the current batch, preserving the global (time, order) sequence.
//
//cdelint:hotpath
func (s *Scheduler) drain() bool {
	if len(s.heap) == 0 {
		return false
	}
	at := s.heap[0].at
	s.now = at
	s.batch = s.batch[:0]
	for len(s.heap) > 0 && s.heap[0].at == at {
		s.batch = append(s.batch, s.pop())
	}
	for i := range s.batch {
		ev := &s.batch[i]
		s.dispatched++
		ev.actor.Fire(at, ev.op)
		ev.actor = nil // drop the reference so pooled actors can recycle
	}
	return true
}

// Reset clears all pending events and rewinds the clock to the epoch,
// keeping the heap and batch capacity for reuse — the sync.Pool path
// netsim's blocking Exchange wrapper rides.
func (s *Scheduler) Reset() {
	for i := range s.heap {
		s.heap[i].actor = nil
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.dispatched = 0
}

// pop removes and returns the minimum event. Callers check len > 0.
//
//cdelint:hotpath
func (s *Scheduler) pop() event {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap[last].actor = nil
	s.heap = s.heap[:last]
	if last > 0 {
		s.siftDown(0)
	}
	return top
}

// less orders the heap by (at, seq).
//
//cdelint:hotpath
func (s *Scheduler) less(i, j int) bool {
	if s.heap[i].at != s.heap[j].at {
		return s.heap[i].at < s.heap[j].at
	}
	return s.heap[i].seq < s.heap[j].seq
}

//cdelint:hotpath
func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

//cdelint:hotpath
func (s *Scheduler) siftDown(i int) {
	n := len(s.heap)
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < n && s.less(left, least) {
			least = left
		}
		if right < n && s.less(right, least) {
			least = right
		}
		if least == i {
			return
		}
		s.heap[i], s.heap[least] = s.heap[least], s.heap[i]
		i = least
	}
}
