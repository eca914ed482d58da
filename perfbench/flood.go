package main

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"dnscde/internal/detpar"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/netsim/des"
	"dnscde/internal/simtest"
)

// The flood workload is the scale sweep's population: stub clients on a
// pool of simulated source connections query a fleet of echo caches, 1%
// of which answer after the client timer (LateRate 1). Clients launch in
// waves of floodWave per simulated millisecond on one event-loop lane —
// an open-loop schedule in simulated time, run as batch work on the host.
// One op is one client exchange settled. The generator, echo handler and
// completion callback belong to the benchmark; the program is reached
// through netsim.Network.Register/Bind, Conn.ExchangeEvent and the lane
// scheduler. platform, dnscache, authns and core are bypassed.

const (
	floodClients   = 1_000_000
	floodCaches    = 10_000
	floodSrcPool   = 1024
	floodLateEvery = 100
	floodWave      = 10_000
	floodTimeout   = 800 * time.Millisecond
	// floodBlock is how many settled exchanges make one op_ms sample:
	// exchanges overlap in simulated time, so host time is sampled per
	// block of settlements and divided by the block size.
	floodBlock = 25_000
	// Salts shared with the scale sweep so the first round draws the
	// same cache picks (the cross-check in the tests relies on it).
	saltFloodPick  = 77
	saltFloodRound = 0xf1
)

// floodFixture is one deployed flood population.
type floodFixture struct {
	world        *simtest.World
	reg          *metrics.Registry
	conns        []*netsim.Conn
	cacheAddrs   []netip.Addr
	picks        []int32
	lateAssigned int64
	query        *dnswire.Message
	loads        []int64
	tk           *track // nil untraced; the echo handler spans through it
	names        *layerNames
}

// deployFlood registers the cache fleet, binds the source pool and draws
// every client's cache pick from seed, exactly as the scale sweep does.
func deployFlood(seed int64, clients, caches int, tk *track, names *layerNames) (*floodFixture, error) {
	reg := metrics.New()
	w, err := simtest.New(simtest.Options{Seed: seed + 1, Metrics: reg, Shards: 1})
	if err != nil {
		return nil, err
	}
	w.Net.SetTimeout(floodTimeout)
	fx := &floodFixture{
		world: w, reg: reg,
		cacheAddrs: make([]netip.Addr, caches),
		loads:      make([]int64, caches),
		picks:      make([]int32, clients),
		query:      dnswire.NewQuery(1, "probe.scale.example", dnswire.TypeA),
		tk:         tk,
		names:      names,
	}
	for i := range fx.cacheAddrs {
		addr := netip.AddrFrom4([4]byte{172, 16 + byte(i>>16)&0x0f, byte(i >> 8), byte(i)})
		fx.cacheAddrs[i] = addr
		profile := netsim.LinkProfile{OneWay: 8 * time.Millisecond}
		if (i+1)%floodLateEvery == 0 {
			profile.Faults = &netsim.FaultProfile{LateRate: 1}
		}
		idx := i
		w.Net.Register(addr, profile, netsim.HandlerFunc(
			func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
				fx.tk.begin(fx.names.handler)
				fx.loads[idx]++
				resp := dnswire.NewResponse(q)
				fx.tk.end()
				return resp, nil
			}))
	}
	for i := range fx.picks {
		pick := int32(uint64(detpar.Derive(seed, saltFloodPick, uint64(i))) % uint64(caches))
		fx.picks[i] = pick
		if (pick+1)%floodLateEvery == 0 {
			fx.lateAssigned++
		}
	}
	n := floodSrcPool
	if clients < n {
		n = clients
	}
	fx.conns = make([]*netsim.Conn, n)
	for i := range fx.conns {
		fx.conns[i] = w.Net.Bind(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	return fx, nil
}

// floodTally accumulates settlements on the lane goroutine.
type floodTally struct {
	completed int64
	failed    int64
	// mischarged counts timed-out exchanges not charged exactly the
	// client timeout; badErr is the first error that is not a timeout.
	mischarged int64
	badErr     error

	blockStart time.Time
	blockMS    []float64 // host ms per exchange, one sample per floodBlock settlements
	tk         *track
	name       int
}

func (t *floodTally) note(_ *dnswire.Message, rtt time.Duration, err error) {
	t.tk.begin(t.name)
	t.completed++
	if err != nil {
		t.failed++
		if rtt != floodTimeout {
			t.mischarged++
		}
		if !errors.Is(err, netsim.ErrTimeout) && t.badErr == nil {
			t.badErr = err
		}
	}
	if t.completed%floodBlock == 0 {
		at := now()
		t.blockMS = append(t.blockMS, ms(at.Sub(t.blockStart))/floodBlock)
		t.blockStart = at
	}
	t.tk.end()
}

// floodGen launches one wave per firing and re-arms one simulated
// millisecond later.
type floodGen struct {
	ctx   context.Context
	sched *des.Scheduler
	fx    *floodFixture
	done  func(*dnswire.Message, time.Duration, error)
	next  int
	fires uint64
	tk    *track
	names *layerNames
}

func (g *floodGen) Fire(_ des.Time, _ uint8) {
	g.tk.begin(g.names.gen)
	g.fires++
	end := g.next + floodWave
	if end > len(g.fx.picks) {
		end = len(g.fx.picks)
	}
	fx := g.fx
	for ; g.next < end; g.next++ {
		c := fx.conns[g.next%len(fx.conns)]
		g.tk.begin(g.names.launch)
		c.ExchangeEvent(g.ctx, g.sched, fx.query, fx.cacheAddrs[fx.picks[g.next]], g.done)
		g.tk.end()
	}
	if g.next < len(fx.picks) {
		g.sched.Schedule(time.Millisecond, g, 0)
	}
	g.tk.end()
}

// floodSweep is one settled population and what the program reported.
type floodSweep struct {
	tally        floodTally
	events       uint64 // dispatched exchange-chain events (generator firings excluded)
	sent, recvd  int64
	clients      int64
	lateAssigned int64
}

// sweep runs every client exchange of the fixture to settlement.
func (fx *floodFixture) sweep(ctx context.Context, ph *phase) (floodSweep, error) {
	ss := fx.world.Sharded
	lane := ss.LaneScheduler(0)
	res := floodSweep{clients: int64(len(fx.picks)), lateAssigned: fx.lateAssigned}
	res.tally.tk, res.tally.name = fx.tk, fx.names.done
	gen := &floodGen{ctx: ctx, sched: lane, fx: fx, done: res.tally.note, tk: fx.tk, names: fx.names}
	before := fx.reg.Snapshot()
	lane.ScheduleAt(0, gen, 0)
	ph.begin()
	res.tally.blockStart = ph.start
	fx.tk.begin(fx.names.run)
	err := ss.Run()
	fx.tk.end()
	ph.end()
	if err != nil {
		return res, fmt.Errorf("flood: %w", err)
	}
	diff := fx.reg.Snapshot().Diff(before)
	res.events = ss.Dispatched() - gen.fires
	res.sent = diff.Counter("netsim.packets.sent")
	res.recvd = diff.Counter("netsim.packets.recvd")
	return res, nil
}

// checkFlood is the flood's output check: every exchange settles, one
// packet each way per exchange, failures are exactly the late-cache
// assignments and each is charged exactly the client timeout.
func checkFlood(s floodSweep) []string {
	var bad []string
	if s.tally.completed != s.clients {
		bad = append(bad, fmt.Sprintf("%d of %d exchanges settled", s.tally.completed, s.clients))
	}
	if s.sent != s.clients || s.recvd != s.clients {
		bad = append(bad, fmt.Sprintf("packets sent/recvd %d/%d, want %d each", s.sent, s.recvd, s.clients))
	}
	if s.tally.failed != s.lateAssigned {
		bad = append(bad, fmt.Sprintf("%d failed exchanges, %d late assignments", s.tally.failed, s.lateAssigned))
	}
	if s.tally.mischarged != 0 {
		bad = append(bad, fmt.Sprintf("%d late exchanges not charged exactly %s", s.tally.mischarged, floodTimeout))
	}
	if s.tally.badErr != nil {
		bad = append(bad, fmt.Sprintf("unexpected exchange error: %v", s.tally.badErr))
	}
	return bad
}

// runFlood sweeps whole populations until the timed phase has lasted
// cfg.seconds. Round 0 uses the scale sweep's picks for the seed.
func runFlood(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	names := cfg.ln
	var tk *track
	if cfg.tr != nil {
		tk = cfg.tr.track(0)
	}
	var fx *floodFixture
	for i := 0; i < setupReps; i++ {
		fx = nil
		start := now()
		var err error
		fx, err = deployFlood(cfg.seed, cfg.floodClients, floodCaches, tk, names)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, now().Sub(start).Seconds())
	}

	cpu0 := readCPU()
	for round := 0; ; round++ {
		if round > 0 {
			var err error
			fx, err = deployFlood(detpar.Derive(cfg.seed, saltFloodRound, uint64(round)), cfg.floodClients, floodCaches, tk, names)
			if err != nil {
				return nil, err
			}
		}
		s, err := fx.sweep(ctx, &rep.timed)
		if err != nil {
			return nil, err
		}
		bad := checkFlood(s)
		rep.attempted += int(s.clients)
		rep.ops += int(s.tally.completed)
		rep.opMS = append(rep.opMS, s.tally.blockMS...)
		for _, why := range bad {
			rep.fail(why)
		}
		rep.exactOf++
		if len(bad) == 0 {
			rep.exact++
		}
		if round == 0 {
			rep.layers["des.events_per_op"] = ratio(float64(s.events), float64(s.tally.completed))
			rep.layers["netsim.packets_per_op"] = ratio(float64(s.sent+s.recvd), float64(s.tally.completed))
		}
		if rep.timed.wall.Seconds() >= cfg.seconds {
			break
		}
	}
	rep.gcShare = gcShare(cpu0, readCPU())
	if cfg.tr != nil {
		// The generator, handler and completion spans are the lane Run
		// span's children, so its self time is the DES's own: heap,
		// delivery, unpack and timers.
		run := cfg.tr.agg("des.ShardedScheduler.Run")
		rep.layers["netsim.launch_ns"] = cfg.tr.agg("netsim.Conn.ExchangeEvent").mean(time.Nanosecond)
		rep.layers["handler.ns"] = cfg.tr.agg("flood.handler").mean(time.Nanosecond)
		rep.layers["des.self_ns"] = ratio(float64(run.self), float64(rep.ops))
	}
	return rep, nil
}
