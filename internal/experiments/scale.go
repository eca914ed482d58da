package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"dnscde/internal/detpar"
	"dnscde/internal/dnswire"
	"dnscde/internal/netsim"
	"dnscde/internal/netsim/des"
	"dnscde/internal/stats"
)

// Scale population defaults: the ROADMAP's million-cache north-star
// checkpoint. CI runs a reduced population via -clients/-caches.
const (
	defaultScaleClients = 1_000_000
	defaultScaleCaches  = 10_000
	// scaleSrcPool is the number of distinct egress addresses the stub
	// population shares (a NAT'd client fleet): per-source RNG streams
	// carry ~5KB of math/rand state each, so the pool bounds stream
	// memory while the event loop still interleaves every client.
	scaleSrcPool = 1024
	// scaleLateEvery marks every Nth cache as pathologically late
	// (LateRate=1): all of its responses arrive after the client timer,
	// exercising the timeout-charging path at scale.
	scaleLateEvery = 100
	// scaleWave is the number of client launches per generator event,
	// one wave per simulated millisecond: bounds the in-flight set (and
	// its pooled exchange/scratch memory) without ever idling the loop.
	scaleWave = 10_000
	// scaleTimeout is the client retransmission timer; late exchanges
	// must be charged exactly this.
	scaleTimeout = 800 * time.Millisecond
)

// scaleTally accumulates completions; each lane owns one tally (the done
// callback runs on the exchange's home lane), merged commutatively after
// the run, so no counter is shared between lanes.
type scaleTally struct {
	completed int64
	failed    int64
	failedRTT time.Duration
	badErr    error
}

func (t *scaleTally) note(_ *dnswire.Message, rtt time.Duration, err error) {
	t.completed++
	if err != nil {
		t.failed++
		t.failedRTT += rtt
		if !errors.Is(err, netsim.ErrTimeout) && t.badErr == nil {
			t.badErr = err
		}
	}
}

// scaleGen is the launch generator: each firing starts one wave of client
// exchanges at the current instant and re-arms itself one simulated
// millisecond later, so launches overlap in-flight round trips and the
// scheduler carries tens of thousands of concurrent chains at any moment.
//
// One generator runs per lane, all walking the same global wave schedule;
// each launches only the clients whose source connection partitions to
// its lane (laneOf), so a client starts at the same simulated instant at
// any shard count and every draw its source stream makes stays on one
// event loop.
type scaleGen struct {
	ctx        context.Context
	sched      *des.Scheduler
	lane       int     // this generator's lane
	laneOf     []int32 // lane per conns index
	conns      []*netsim.Conn
	query      *dnswire.Message
	picks      []int32
	cacheAddrs []netip.Addr
	done       func(*dnswire.Message, time.Duration, error)
	next       int
	fires      uint64
}

func (g *scaleGen) Fire(now des.Time, op uint8) {
	g.fires++
	if g.ctx.Err() != nil {
		return // cancelled: stop launching; the driver surfaces ctx.Err
	}
	end := g.next + scaleWave
	if end > len(g.picks) {
		end = len(g.picks)
	}
	for ; g.next < end; g.next++ {
		ci := g.next % len(g.conns)
		if g.laneOf[ci] != int32(g.lane) {
			continue
		}
		g.conns[ci].ExchangeEvent(g.ctx, g.sched, g.query, g.cacheAddrs[g.picks[g.next]], g.done)
	}
	if g.next < len(g.picks) {
		g.sched.Schedule(time.Millisecond, g, 0)
	}
}

// Scale is the DES throughput sweep: ScaleClients stub clients (default
// 1M) multiplex on the discrete-event scheduler against ScaleCaches
// simulated caches (default 10K), 1% of which respond late. The workload
// runs as per-lane populations on the world's cfg.Shards lanes — the
// multi-core configuration bench-shard.json tracks — and the report is
// byte-identical at any shard count. The report asserts the exchange
// accounting at population scale — exactly one sent and one received
// packet per exchange, and late exchanges charged the bare timeout — plus
// completeness and load spread.
// Wall-clock evidence lives in cdebench's wall_ms field (bench-scale.json
// and bench-shard.json in CI); the driver itself never reads a wall
// clock.
func Scale(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	clients := cfg.ScaleClients
	if clients <= 0 {
		clients = defaultScaleClients
	}
	caches := cfg.ScaleCaches
	if caches <= 0 {
		caches = defaultScaleCaches
	}

	w, err := cfg.world()
	if err != nil {
		return nil, err
	}
	net := w.Net
	net.SetTimeout(scaleTimeout)

	// Cache fleet: echo handlers tallying per-cache load into a plain
	// slice — safe because each cache's handler always runs on the one
	// lane its address partitions to (a single goroutine).
	cacheAddrs := make([]netip.Addr, caches)
	loads := make([]int64, caches)
	lateCaches := 0
	for i := range cacheAddrs {
		addr := netip.AddrFrom4([4]byte{172, 16 + byte(i>>16)&0x0f, byte(i >> 8), byte(i)})
		cacheAddrs[i] = addr
		profile := netsim.LinkProfile{OneWay: 8 * time.Millisecond}
		if (i+1)%scaleLateEvery == 0 {
			profile.Faults = &netsim.FaultProfile{LateRate: 1}
			lateCaches++
		}
		idx := i
		net.Register(addr, profile, netsim.HandlerFunc(
			func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
				loads[idx]++
				return dnswire.NewResponse(q), nil
			}))
	}

	// Pre-draw each client's cache pick (pure splitmix64 of the seed and
	// client index) and count how many land on a late cache: the failed
	// population is known exactly before the first event fires.
	picks := make([]int32, clients)
	lateAssigned := int64(0)
	for i := range picks {
		pick := int32(uint64(detpar.Derive(cfg.Seed, 77, uint64(i))) % uint64(caches))
		picks[i] = pick
		if (pick+1)%scaleLateEvery == 0 {
			lateAssigned++
		}
	}

	conns := make([]*netsim.Conn, scaleSrcPool)
	if clients < scaleSrcPool {
		conns = conns[:clients]
	}
	for i := range conns {
		conns[i] = net.Bind(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}

	query := dnswire.NewQuery(1, "probe.scale.example", dnswire.TypeA)
	before := cfg.Metrics.Snapshot()

	var (
		tally    scaleTally
		events   uint64
		genFires uint64
	)
	// One generator and one tally per lane: each source connection's
	// exchanges launch, draw and settle on its partition lane.
	ss := w.Sharded
	laneOf := make([]int32, len(conns))
	for i, c := range conns {
		laneOf[i] = int32(ss.LaneFor(c.LaneKey()))
	}
	gens := make([]*scaleGen, ss.Lanes())
	tallies := make([]scaleTally, ss.Lanes())
	for l := range gens {
		gens[l] = &scaleGen{
			ctx: ctx, sched: ss.LaneScheduler(l), lane: l, laneOf: laneOf,
			conns: conns, query: query, picks: picks, cacheAddrs: cacheAddrs,
			done: tallies[l].note,
		}
		ss.LaneScheduler(l).ScheduleAt(0, gens[l], 0)
	}
	if err := ss.Run(); err != nil {
		return nil, fmt.Errorf("scale: sharded run: %w", err)
	}
	events = ss.Dispatched()
	for l := range gens {
		genFires += gens[l].fires
		tally.completed += tallies[l].completed
		tally.failed += tallies[l].failed
		tally.failedRTT += tallies[l].failedRTT
		if tally.badErr == nil {
			tally.badErr = tallies[l].badErr
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tally.badErr != nil {
		return nil, fmt.Errorf("scale: unexpected exchange error: %w", tally.badErr)
	}
	diff := cfg.Metrics.Snapshot().Diff(before)

	var minLoad, maxLoad, sumLoad int64
	minLoad = int64(clients)
	for _, l := range loads {
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
		sumLoad += l
	}
	meanLoad := float64(sumLoad) / float64(caches)

	makespan := ss.Now().Duration()

	table := &stats.Table{Header: []string{"Metric", "Value"}}
	table.AddRow("stub clients", fmt.Sprintf("%d", clients))
	table.AddRow("caches", fmt.Sprintf("%d (%d late)", caches, lateCaches))
	// Generator firings are excluded: the sharded path runs one generator
	// per lane over the same wave schedule, so only the exchange-chain
	// event count is comparable — and it is identical at any shard count.
	table.AddRow("events dispatched", fmt.Sprintf("%d", events-genFires))
	table.AddRow("simulated makespan", makespan.String())
	table.AddRow("completed / failed", fmt.Sprintf("%d / %d", tally.completed, tally.failed))
	table.AddRow("cache load min/mean/max", fmt.Sprintf("%d / %.1f / %d", minLoad, meanLoad, maxLoad))

	report := &Report{
		ID:    "scale",
		Title: fmt.Sprintf("DES scale sweep: %d stub clients vs %d caches on one event loop", clients, caches),
		Text:  table.String(),
	}
	report.Checks = append(report.Checks,
		Check{Name: "every client exchange settles",
			Paper: float64(clients), Measured: float64(tally.completed)},
		Check{Name: "one sent packet per exchange (no double count)",
			Paper: float64(clients), Measured: float64(diff.Counter("netsim.packets.sent"))},
		Check{Name: "one received response per exchange (late included)",
			Paper: float64(clients), Measured: float64(diff.Counter("netsim.packets.recvd"))},
		Check{Name: "failures are exactly the late-cache assignments",
			Paper: float64(lateAssigned), Measured: float64(tally.failed)},
	)
	if tally.failed > 0 {
		// Each late exchange must cost the bare timeout: the client's
		// retransmission timer runs concurrently with the server's work.
		report.Checks = append(report.Checks,
			Check{Name: "late exchanges charged exactly the bare timeout",
				Paper:     1,
				Measured:  float64(tally.failedRTT) / (float64(tally.failed) * float64(scaleTimeout)),
				Tolerance: 1e-9})
	}
	if meanLoad >= 50 {
		// With ≥50 expected queries per cache the splitmix64 pick spread
		// is tight: every cache is exercised and no cache sees more than
		// twice the mean.
		report.Checks = append(report.Checks,
			Check{Name: "every cache exercised",
				Paper: 1, Measured: boolMeasure(minLoad > 0)},
			Check{Name: "max cache load under 2x mean",
				Paper: 1, Measured: boolMeasure(float64(maxLoad) < 2*meanLoad)},
		)
	}
	return report, nil
}

// boolMeasure renders a predicate as a Check measurement.
func boolMeasure(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
