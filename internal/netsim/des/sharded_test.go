package des

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dnscde/internal/detpar"
)

// hopRec is one observed dispatch: simulated time and opcode.
type hopRec struct {
	at Time
	op uint8
}

// token is a test actor that walks a fixed ring of positions, hopping to
// each position's lane via SendTo and logging every dispatch it sees.
// Tokens are fully independent — each owns its state — which is exactly
// the invariance contract: a causal chain's observations are a pure
// function of the workload at any shard count. (Shared mutable state
// between concurrently-firing lanes is out of contract, as on any
// parallel scheduler.)
type token struct {
	scheds    []*Scheduler // scheds[i] owns position i's lane
	lanes     []int        // lanes[i] is position i's lane index
	pos       int
	remaining int
	log       []hopRec
}

func (tk *token) Fire(now Time, op uint8) {
	tk.log = append(tk.log, hopRec{at: now, op: op})
	if tk.remaining <= 0 {
		return
	}
	tk.remaining--
	next := (tk.pos + 1) % len(tk.lanes)
	tk.scheds[tk.pos].SendTo(tk.lanes[next], now.Add(3*time.Millisecond), tk, op+1)
	tk.pos = next
}

// ringLogs runs nTokens independent ring-walking tokens (hops each) over
// nPos positions keyed through LaneFor, and returns the per-token logs.
func ringLogs(t *testing.T, shards, nPos, nTokens, hops int) [][]hopRec {
	t.Helper()
	ss := NewSharded(shards)
	scheds := make([]*Scheduler, nPos)
	lanes := make([]int, nPos)
	for i := range scheds {
		lanes[i] = ss.LaneFor(detpar.Mix(uint64(i) + 12345))
		scheds[i] = ss.LaneScheduler(lanes[i])
	}
	tokens := make([]*token, nTokens)
	for i := range tokens {
		tokens[i] = &token{scheds: scheds, lanes: lanes, pos: i % nPos, remaining: hops}
		scheds[i%nPos].ScheduleAt(0, tokens[i], 0)
	}
	if err := ss.Run(); err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	if got, want := ss.Dispatched(), uint64(nTokens*(hops+1)); got != want {
		t.Fatalf("shards=%d dispatched %d events, want %d", shards, got, want)
	}
	logs := make([][]hopRec, nTokens)
	for i, tk := range tokens {
		logs[i] = tk.log
	}
	return logs
}

// TestShardedMatchesSingleScheduler proves the tentpole determinism claim
// at the scheduler layer: a cross-lane workload observes byte-identical
// per-actor dispatch sequences on a plain Scheduler, a 1-lane sharded
// universe and multi-lane sharded universes.
func TestShardedMatchesSingleScheduler(t *testing.T) {
	const nPos, nTokens, hops = 13, 7, 400

	// Reference: plain single scheduler (SendTo degenerates to ScheduleAt).
	plain := NewScheduler()
	refTokens := make([]*token, nTokens)
	scheds := make([]*Scheduler, nPos)
	lanes := make([]int, nPos)
	for i := range scheds {
		scheds[i] = plain
		lanes[i] = 0
	}
	for i := range refTokens {
		refTokens[i] = &token{scheds: scheds, lanes: lanes, pos: i % nPos, remaining: hops}
		plain.ScheduleAt(0, refTokens[i], 0)
	}
	plain.Run()

	for _, shards := range []int{1, 2, 3, 8} {
		logs := ringLogs(t, shards, nPos, nTokens, hops)
		for i, ref := range refTokens {
			if len(logs[i]) != len(ref.log) {
				t.Fatalf("shards=%d token %d saw %d dispatches, plain saw %d",
					shards, i, len(logs[i]), len(ref.log))
			}
			for j := range logs[i] {
				if logs[i][j] != ref.log[j] {
					t.Fatalf("shards=%d token %d dispatch %d = %+v, plain = %+v",
						shards, i, j, logs[i][j], ref.log[j])
				}
			}
		}
	}
}

// spammer fans out to every lane each time it fires — the adversarial
// all-to-all cross-shard pattern for the race detector.
type spammer struct {
	sched   *Scheduler
	targets []*spammer // one per lane
	rounds  int
	fired   int
}

func (s *spammer) Fire(now Time, op uint8) {
	s.fired++
	if int(op) >= s.rounds {
		return
	}
	for lane, tgt := range s.targets {
		s.sched.SendTo(lane, now.Add(time.Millisecond), tgt, op+1)
	}
}

// TestShardedAllToAllRace floods every lane-pair mailbox every round.
// Run under -race this exercises the lock-free mailbox handoff, the
// barrier protocol and concurrent lane dispatch; the event count is an
// exact closed form, so any lost or duplicated cross-shard send fails
// loudly at every shard count.
func TestShardedAllToAllRace(t *testing.T) {
	const rounds = 6
	for _, shards := range []int{2, 4, 8} {
		ss := NewSharded(shards)
		lanes := ss.Lanes()
		spammers := make([]*spammer, lanes)
		for i := range spammers {
			spammers[i] = &spammer{sched: ss.LaneScheduler(i), rounds: rounds}
		}
		for _, s := range spammers {
			s.targets = spammers
		}
		ss.LaneScheduler(0).ScheduleAt(0, spammers[0], 0)
		if err := ss.Run(); err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		// 1 seed + lanes^1 + lanes^2 + ... + lanes^rounds dispatches.
		want := uint64(1)
		pow := uint64(1)
		for r := 0; r < rounds; r++ {
			pow *= uint64(lanes)
			want += pow
		}
		if got := ss.Dispatched(); got != want {
			t.Fatalf("shards=%d dispatched %d, want %d", shards, got, want)
		}
	}
}

// resumer is the lane-side half of a process round trip: it records when
// the injected event fires and resumes the process 10ms of simulated time
// later, from a follow-up event on the same lane.
type resumer struct {
	p    *Process
	lane int
	at   []Time
}

func (r *resumer) Fire(now Time, op uint8) {
	if op == 0 {
		r.at = append(r.at, now)
		r.p.LaneScheduler(r.lane).Schedule(10*time.Millisecond, r, 1)
		return
	}
	r.p.Resume()
}

// TestProcessLifecycle drives Await/Resume/Finish end to end: each Await
// must inject its event at the round the previous resume happened in, so
// a chain that takes 10ms to resume spaces the injections 10ms apart, and
// Finish must let Run return once the goroutine is done.
func TestProcessLifecycle(t *testing.T) {
	for _, shards := range []int{1, 3} {
		ss := NewSharded(shards)
		p := ss.NewProcess()
		r := &resumer{p: p}
		go func() {
			for i := 0; i < 3; i++ {
				r.lane = p.LaneFor(uint64(i))
				p.Await(r.lane, r, 0)
			}
			p.Finish()
		}()
		if err := ss.Run(); err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		ms := func(n int) Time { return Time(0).Add(time.Duration(n) * time.Millisecond) }
		wantR := []Time{ms(0), ms(10), ms(20)}
		if len(r.at) != len(wantR) {
			t.Fatalf("shards=%d resumer fired %d times, want %d", shards, len(r.at), len(wantR))
		}
		for i := range wantR {
			if r.at[i] != wantR[i] {
				t.Fatalf("shards=%d injection %d fired at %v, want %v", shards, i, r.at[i], wantR[i])
			}
		}
		if got := ss.Now(); got != ms(30) {
			t.Fatalf("shards=%d run ended at %v, want %v", shards, got, ms(30))
		}
	}
}

// stuck parks its process forever: it never resumes.
type stuck struct{}

func (stuck) Fire(Time, uint8) {}

// TestProcessDeadlock checks that a parked process whose chain never
// resumes it is detected (ErrDeadlock) and aborted (the goroutine unwinds
// through the Aborted panic).
func TestProcessDeadlock(t *testing.T) {
	ss := NewSharded(2)
	p := ss.NewProcess()
	unwound := make(chan bool, 1)
	go func() {
		defer func() { unwound <- Aborted(recover()) }()
		p.Await(1, stuck{}, 0)
		t.Error("Await returned from a deadlocked universe")
	}()
	if err := ss.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if !<-unwound {
		t.Fatal("parked goroutine did not unwind through the abort panic")
	}
}

// bomb panics when fired.
type bomb struct{}

func (bomb) Fire(Time, uint8) { panic("boom") }

// TestLanePanicAbortsRun checks that an actor panic on a lane surfaces as
// a Run error naming the lane and aborts any parked process.
func TestLanePanicAbortsRun(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ss := NewSharded(shards)
		p := ss.NewProcess()
		unwound := make(chan bool, 1)
		go func() {
			defer func() { unwound <- Aborted(recover()) }()
			p.Await(0, stuck{}, 0)
			t.Error("Await returned from an aborted universe")
		}()
		lane := ss.Lanes() - 1
		ss.LaneScheduler(lane).ScheduleAt(0, bomb{}, 0)
		err := ss.Run()
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("shards=%d Run = %v, want lane panic error", shards, err)
		}
		if !<-unwound {
			t.Fatalf("shards=%d parked goroutine did not unwind through the abort panic", shards)
		}
	}
}

// TestShardedHotPathAllocationFree extends the hot-path allocation
// contract to sharded dispatch: after a warm-up run grows the mailboxes
// and heaps to steady state, a second run pushing many cross-lane events
// must allocate only the fixed per-Run machinery (worker goroutines and
// channels), nothing per event. testing.AllocsPerRun only counts the
// calling goroutine, so this measures the whole process via MemStats.
func TestShardedHotPathAllocationFree(t *testing.T) {
	const hops = 20000
	ss := NewSharded(2)
	runPinned := func() {
		budget := hops
		a := &pinnedHopper{hops: &budget}
		b := &pinnedHopper{hops: &budget}
		a.sched, a.toLane, a.next = ss.LaneScheduler(0), 1, b
		b.sched, b.toLane, b.next = ss.LaneScheduler(1), 0, a
		a.sched.ScheduleAt(ss.Now(), a, 0)
		if err := ss.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}

	runPinned() // warm-up: grow heaps, mailboxes, worker stacks

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	runPinned()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	// Fixed per-Run overhead (2 workers, 3 channels, bookkeeping) is well
	// under this budget; a per-event allocation would cost >= hops.
	if allocs > 1000 {
		t.Fatalf("sharded steady-state run allocated %d objects over %d cross-lane hops; hot path must not allocate", allocs, hops)
	}
}

// pinnedHopper bounces between two explicit lanes.
type pinnedHopper struct {
	sched  *Scheduler
	toLane int
	next   *pinnedHopper
	hops   *int
}

func (h *pinnedHopper) Fire(now Time, op uint8) {
	if *h.hops <= 0 {
		return
	}
	*h.hops--
	h.sched.SendTo(h.toLane, now.Add(time.Millisecond), h.next, op+1)
}
