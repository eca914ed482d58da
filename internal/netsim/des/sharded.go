package des

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// infTime is the sentinel "no pending event" timestamp.
const infTime = Time(math.MaxInt64)

// ErrDeadlock reports a sharded run that stalled: live processes remain
// but no lane has a pending event and nothing is runnable, so no chain
// can ever advance. It indicates a caller bug (a process parked on an
// event that was never scheduled).
var ErrDeadlock = errors.New("des: sharded run deadlocked: processes parked with no pending events")

// errAborted is the panic value delivered to parked processes when a
// lane panic kills the run; RunSequenced-style drivers recover it.
var errAborted = errors.New("des: sharded scheduler aborted")

// xev is one cross-lane mailbox record: a pending event in flight from a
// sending lane to a receiving lane. Records live by value in the
// per-(sender,receiver) outbox slices, whose capacity is recycled across
// barrier rounds — the pooled-mailbox design keeping the cross-shard
// send path allocation-free in steady state.
type xev struct {
	at    Time
	op    uint8
	actor Actor
}

// injection is one event a Process asks the coordinator to plant between
// rounds. (procID, seq) orders simultaneous injections deterministically.
type injection struct {
	procID uint64
	seq    uint64
	lane   int
	op     uint8
	actor  Actor
}

// laneCmd is one phase instruction from the coordinator to a lane worker.
type laneCmd struct {
	imp bool // true: drain inbound mailboxes; false: run the round
	at  Time
}

// laneDone is a worker's phase-completion report.
type laneDone struct {
	idx      int
	panicked any
}

// ShardedScheduler runs N independent event-loop lanes — one goroutine
// each — under a conservative bulk-synchronous protocol: every round,
// the coordinator computes the global minimum pending timestamp T across
// all lane heaps and cross-lane mailboxes, wakes exactly the lanes with
// work at T, and runs two phases separated by barriers. Phase one drains
// inbound mailboxes into the receiving lanes' heaps; phase two dispatches
// every event at T. Because no lane ever executes an event with a
// timestamp above the global minimum, an event's effects are always
// imported before any later-timestamped event runs — the same causal
// order a single-threaded scheduler guarantees.
//
// Mailboxes are lock-free in the only sense that matters here: the
// out[s][r] slice is written exclusively by lane s during run phases and
// read exclusively by lane r during import phases, and the two phases
// never overlap, so no send or drain takes a lock. Happens-before between
// the phases is established by the coordinator's channel barriers.
//
// Determinism: each lane dispatches its events in (time, seq) order, and
// a lane's event sequence is a pure function of the workload — imports
// happen in ascending sender-lane order at fixed barrier points, so the
// wall-clock interleaving of lane goroutines never leaks into dispatch
// order. Cross-shard *draw-order* invariance is a property netsim layers
// on top: every RNG stream belongs to one source address, and a source's
// draws all happen on causally ordered events, so re-partitioning sources
// over lanes cannot reorder any single stream (DESIGN.md §12).
type ShardedScheduler struct {
	lanes []*Scheduler

	// out[s][r] is the mailbox from lane s to lane r; outMin[s][r] is the
	// minimum timestamp it holds (infTime when empty), letting the
	// coordinator fold the global minimum without touching the records.
	out    [][][]xev
	outMin [][]Time

	// Worker machinery, rebuilt per Run (multi-lane only).
	cmds []chan laneCmd
	fin  chan laneDone
	wg   sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	runnable int
	procs    int
	procSeq  uint64
	injected []injection
	injSpare []injection
	procList []*Process
	dead     bool

	// lastT is the current round's timestamp; inRound is true while lane
	// workers (or the inline fast path) are still executing that round.
	// Both are guarded by mu for readers outside the coordinator
	// goroutine: a process resumed by one lane's event runs concurrently
	// with the rest of the round, so Now and Quiescent must wait for the
	// round to drain before reading scheduler state.
	lastT   Time
	inRound bool
}

// NewSharded builds an n-lane sharded scheduler (n < 1 is treated as 1).
// No goroutines start until Run is called.
func NewSharded(n int) *ShardedScheduler {
	if n < 1 {
		n = 1
	}
	ss := &ShardedScheduler{
		lanes:  make([]*Scheduler, n),
		out:    make([][][]xev, n),
		outMin: make([][]Time, n),
	}
	ss.cond = sync.NewCond(&ss.mu)
	for i := range ss.lanes {
		s := NewScheduler()
		s.lane = &laneLink{ss: ss, idx: i}
		ss.lanes[i] = s
		ss.out[i] = make([][]xev, n)
		ss.outMin[i] = make([]Time, n)
		for r := range ss.outMin[i] {
			ss.outMin[i][r] = infTime
		}
	}
	return ss
}

// Lanes returns the lane count.
func (ss *ShardedScheduler) Lanes() int { return len(ss.lanes) }

// LaneScheduler returns the scheduler owning lane i.
func (ss *ShardedScheduler) LaneScheduler(i int) *Scheduler { return ss.lanes[i] }

// LaneFor maps a partition key to its lane (see Scheduler.LaneFor).
func (ss *ShardedScheduler) LaneFor(key uint64) int { return ss.lanes[0].LaneFor(key) }

// Now returns the timestamp of the last completed round. When called
// from a process goroutine it blocks until the round that resumed the
// process has fully drained on every lane, so the value (and any world
// state read afterwards, while the caller remains runnable) is stable.
func (ss *ShardedScheduler) Now() Time {
	ss.mu.Lock()
	for ss.inRound && !ss.dead {
		ss.cond.Wait()
	}
	t := ss.lastT
	ss.mu.Unlock()
	return t
}

// roundBarrier blocks until no Run round is executing. While the caller
// is a runnable process the coordinator cannot start the next round
// (it waits for runnable == 0), so scheduler state is stable after the
// barrier returns.
func (ss *ShardedScheduler) roundBarrier() {
	ss.mu.Lock()
	for ss.inRound && !ss.dead {
		ss.cond.Wait()
	}
	ss.mu.Unlock()
}

// Dispatched sums the events fired across all lanes. Call it only when
// the scheduler is quiescent (before Run or after it returns).
func (ss *ShardedScheduler) Dispatched() uint64 {
	var n uint64
	for _, lane := range ss.lanes {
		n += lane.dispatched
	}
	return n
}

// post appends one cross-lane event to the from→to mailbox. Only the
// goroutine running lane `from` may call it (via Scheduler.SendTo).
//
//cdelint:hotpath
func (ss *ShardedScheduler) post(from, to int, at Time, a Actor, op uint8) {
	box := ss.out[from]
	//cdelint:allow hotalloc mailbox slices grow to the steady-state in-flight set once, then recycle their capacity across rounds
	box[to] = append(box[to], xev{at: at, op: op, actor: a})
	if at < ss.outMin[from][to] {
		ss.outMin[from][to] = at
	}
}

// importInbox drains every mailbox addressed to lane r into its heap, in
// ascending sender order, and resets the drained boxes. Runs on lane r's
// worker during an import phase, when no lane is sending.
//
//cdelint:hotpath
func (ss *ShardedScheduler) importInbox(r int) {
	lane := ss.lanes[r]
	for s := range ss.lanes {
		box := ss.out[s][r]
		if len(box) == 0 {
			continue
		}
		for i := range box {
			e := &box[i]
			lane.ScheduleAt(e.at, e.actor, e.op)
			e.actor = nil
		}
		ss.out[s][r] = box[:0]
		ss.outMin[s][r] = infTime
	}
}

// inboxMin returns the earliest timestamp pending in any mailbox
// addressed to lane r. Coordinator-only, between phases.
func (ss *ShardedScheduler) inboxMin(r int) Time {
	min := infTime
	for s := range ss.lanes {
		if at := ss.outMin[s][r]; at < min {
			min = at
		}
	}
	return min
}

// worker is one lane's phase loop: execute coordinator commands until the
// command channel closes, converting panics into reports so a fault in
// one lane fails the run instead of crashing the process.
func (ss *ShardedScheduler) worker(idx int, cmds <-chan laneCmd) {
	defer ss.wg.Done()
	for cmd := range cmds {
		res := laneDone{idx: idx}
		func() {
			defer func() {
				if r := recover(); r != nil {
					res.panicked = r
				}
			}()
			if cmd.imp {
				ss.importInbox(idx)
			} else {
				ss.lanes[idx].runRound(cmd.at)
			}
		}()
		ss.fin <- res
	}
}

// Run drives the sharded universe until every lane heap and mailbox is
// empty and every process has finished, then returns. It is the sharded
// analogue of Scheduler.Run; it must not be called concurrently with
// itself, and actors run strictly on their lane's goroutine. A panic
// inside an event is returned as an error (and parked processes are
// aborted); ErrDeadlock reports a stalled process graph.
func (ss *ShardedScheduler) Run() error {
	n := len(ss.lanes)
	if n > 1 {
		ss.cmds = make([]chan laneCmd, n)
		ss.fin = make(chan laneDone, n)
		for i := range ss.cmds {
			ss.cmds[i] = make(chan laneCmd, 1)
			ss.wg.Add(1)
			//cdelint:allow simgo each lane worker runs only its own lane's events, between coordinator barriers
			go ss.worker(i, ss.cmds[i])
		}
		defer func() {
			for _, c := range ss.cmds {
				close(c)
			}
			ss.wg.Wait()
			ss.cmds = nil
		}()
	}

	active := make([]int, 0, n)
	for {
		// Barrier on computation: every process resumed during the last
		// round must park (or finish) before the next timestamp is chosen,
		// so injection timing is a function of the event graph alone.
		ss.mu.Lock()
		for ss.runnable > 0 {
			ss.cond.Wait()
		}
		inj := ss.injected
		ss.injected = ss.injSpare[:0]
		ss.injSpare = inj
		ss.mu.Unlock()

		if len(inj) > 0 {
			// Simultaneous injections from distinct processes are ordered
			// by (process id, per-process seq) — ids are assigned in
			// creation order, so sequential-causality workloads (at most
			// one runnable process at a time) are fully deterministic.
			sort.Slice(inj, func(i, j int) bool {
				if inj[i].procID != inj[j].procID {
					return inj[i].procID < inj[j].procID
				}
				return inj[i].seq < inj[j].seq
			})
			for i := range inj {
				in := &inj[i]
				ss.lanes[in.lane].ScheduleAt(ss.lastT, in.actor, in.op)
				in.actor = nil
			}
		}

		// Global minimum pending timestamp across heaps and mailboxes.
		T := infTime
		for _, lane := range ss.lanes {
			if at, ok := lane.peek(); ok && at < T {
				T = at
			}
		}
		for s := range ss.outMin {
			for _, at := range ss.outMin[s] {
				if at < T {
					T = at
				}
			}
		}
		if T == infTime {
			ss.mu.Lock()
			if ss.procs == 0 && ss.runnable == 0 && len(ss.injected) == 0 {
				ss.mu.Unlock()
				return nil
			}
			if ss.runnable == 0 && len(ss.injected) == 0 {
				ss.mu.Unlock()
				ss.abort()
				return ErrDeadlock
			}
			ss.mu.Unlock()
			continue
		}

		// Active set: lanes with events to run at T or mail to import.
		active = active[:0]
		for i, lane := range ss.lanes {
			at, ok := lane.peek()
			if (ok && at == T) || ss.inboxMin(i) == T {
				active = append(active, i)
			}
		}

		// Publish the round before dispatching it: lastT is final for the
		// round before any event fires, so a process resumed mid-round
		// already reads the right clock, and inRound holds Now/Quiescent
		// readers back until every lane has finished the round.
		ss.mu.Lock()
		ss.inRound = true
		ss.lastT = T
		ss.mu.Unlock()

		if n == 1 {
			if err := ss.runLaneInline(T); err != nil {
				ss.abort()
				return err
			}
		} else {
			if err := ss.phase(active, laneCmd{imp: true}); err != nil {
				ss.abort()
				return err
			}
			if err := ss.phase(active, laneCmd{at: T}); err != nil {
				ss.abort()
				return err
			}
		}

		ss.mu.Lock()
		ss.inRound = false
		ss.cond.Broadcast()
		ss.mu.Unlock()
	}
}

// runLaneInline is the single-lane fast path: no worker goroutines, no
// barriers — the coordinator runs the round itself. Cross-lane mailboxes
// are unreachable with one lane, so no import phase is needed.
func (ss *ShardedScheduler) runLaneInline(at Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("des: lane 0 panicked: %v", r)
		}
	}()
	ss.lanes[0].runRound(at)
	return nil
}

// phase broadcasts one command to the active lanes and waits for all of
// them — one barrier of the bulk-synchronous round.
func (ss *ShardedScheduler) phase(active []int, cmd laneCmd) error {
	for _, i := range active {
		ss.cmds[i] <- cmd
	}
	var perr error
	for range active {
		res := <-ss.fin
		if res.panicked != nil && perr == nil {
			perr = fmt.Errorf("des: lane %d panicked: %v", res.idx, res.panicked)
		}
	}
	return perr
}

// abort marks the universe dead and unparks every parked process with an
// abort panic, so blocked RunSequenced-style drivers can unwind.
func (ss *ShardedScheduler) abort() {
	ss.mu.Lock()
	ss.dead = true
	ss.inRound = false
	ss.cond.Broadcast()
	var parked []*Process
	for _, p := range ss.procList {
		if p.parked && !p.finished {
			p.aborted = true
			parked = append(parked, p)
		}
	}
	ss.mu.Unlock()
	for _, p := range parked {
		p.resume <- struct{}{}
	}
}

// Process is the bridge between a blocking, goroutine-shaped sequential
// workload (simtest.World.RunSequenced's driver) and the sharded event
// loops. A process lives on its own goroutine; to perform one
// event-chained operation it injects the chain's first event via Await
// and parks until some event calls Resume. The coordinator never starts
// a round while any process is runnable, which makes injection timing —
// and therefore every downstream draw — deterministic.
type Process struct {
	ss       *ShardedScheduler
	id       uint64
	seq      uint64
	resume   chan struct{}
	parked   bool
	finished bool
	aborted  bool
}

// NewProcess registers a new process with the universe. The process
// counts as runnable until its goroutine calls Await or Finish,
// so create it before (or on the same lane event as) starting the
// goroutine that drives it.
func (ss *ShardedScheduler) NewProcess() *Process {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.procSeq++
	p := &Process{ss: ss, id: ss.procSeq, resume: make(chan struct{}, 1)}
	ss.procs++
	ss.runnable++
	ss.procList = append(ss.procList, p)
	return p
}

// LaneFor maps a partition key to a lane.
func (p *Process) LaneFor(key uint64) int { return p.ss.LaneFor(key) }

// LaneScheduler returns the scheduler of lane i.
func (p *Process) LaneScheduler(i int) *Scheduler { return p.ss.lanes[i] }

// Await injects one event on the given lane at the current round's
// timestamp and parks the calling goroutine
// until an event calls Resume. The injected actor's chain must
// eventually Resume this process, or the run deadlocks.
func (p *Process) Await(lane int, a Actor, op uint8) {
	ss := p.ss
	ss.mu.Lock()
	if ss.dead {
		ss.mu.Unlock()
		panic(errAborted)
	}
	p.seq++
	ss.injected = append(ss.injected, injection{procID: p.id, seq: p.seq, lane: lane, op: op, actor: a})
	p.parked = true
	ss.runnable--
	ss.cond.Broadcast()
	ss.mu.Unlock()
	<-p.resume
	if p.aborted {
		panic(errAborted)
	}
}

// Resume unparks a process parked in Await. It must be called from a
// lane event (the chain the process injected), at most once per Await.
func (p *Process) Resume() {
	ss := p.ss
	ss.mu.Lock()
	ss.runnable++
	p.parked = false
	ss.mu.Unlock()
	p.resume <- struct{}{}
}

// Finish retires the process without injecting anything further.
func (p *Process) Finish() {
	ss := p.ss
	ss.mu.Lock()
	p.finished = true
	ss.procs--
	ss.runnable--
	ss.cond.Broadcast()
	ss.mu.Unlock()
}

// Aborted reports whether the universe died under this process (after a
// lane panic); drivers use it to distinguish abort unwinds.
func Aborted(r any) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, errAborted)
}
