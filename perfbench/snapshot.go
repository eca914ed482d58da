package main

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"time"

	"dnscde/internal/detpar"
	"dnscde/internal/dnscache"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/simtest"
	"dnscde/internal/worldstate"
)

// The snapshot workload is checkpoint/restore of a large world, built as
// `cdebench -exp checkpoint` builds it: one platform whose caches hold
// snapshotEntries A records, installed through the checkpoint API. One
// op is the write path (World.Snapshot, worldstate.Encode) followed by
// the read path (worldstate.Decode, World.Restore into a fresh world of
// the same config); the loop is closed with one client.

const (
	snapshotEntries = 20_000
	snapshotCaches  = 200
	snapshotMinOps  = 100
	saltSnapName    = 0x5a
	saltSnapAddr    = 0x5b
)

// snapshotWorld builds the benchmark world; entries 0 builds the empty
// restore target. Names and addresses derive from seed.
func snapshotWorld(seed int64, entries, caches int) (*simtest.World, error) {
	w, err := simtest.New(simtest.Options{Seed: seed, Metrics: metrics.New(), Shards: 1})
	if err != nil {
		return nil, err
	}
	plat, err := w.NewPlatform(simtest.PlatformSpec{
		Name: "bench", Caches: caches, Ingress: 2, Egress: 4, Seed: seed,
		Profile: netsim.LinkProfile{OneWay: 2 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	handles := plat.Caches()
	stored := w.Clock.Now()
	items := make([][]dnscache.ItemState, len(handles))
	for i := 0; i < entries; i++ {
		tag := uint64(detpar.Derive(seed, saltSnapName, uint64(i)))
		name := fmt.Sprintf("q%d-%08x.bench.example.", i, uint32(tag))
		a := uint32(detpar.Derive(seed, saltSnapAddr, uint64(i)))
		addr := netip.AddrFrom4([4]byte{10, byte(a >> 16), byte(a >> 8), byte(a)})
		c := i % len(handles)
		items[c] = append(items[c], dnscache.ItemState{
			Key: name + "|IN|A",
			Entry: dnscache.Entry{Records: []dnswire.RR{{
				Name: name, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.ARecord{Addr: addr},
			}}},
			Stored:  stored,
			Expires: stored.Add(300 * time.Second),
		})
	}
	for c, h := range handles {
		h.RestoreItems(items[c])
	}
	return w, nil
}

// checkSnapshot is the snapshot's output check: the restored world
// re-encodes to exactly the original image.
func checkSnapshot(image, reencoded []byte) string {
	if !bytes.Equal(image, reencoded) {
		return fmt.Sprintf("restored world re-encodes to %d bytes that differ from the %d-byte image", len(reencoded), len(image))
	}
	return ""
}

// reencode captures and encodes a world.
func reencode(w *simtest.World) ([]byte, error) {
	img, err := w.Snapshot(nil)
	if err != nil {
		return nil, err
	}
	return worldstate.Encode(img)
}

// runSnapshot round-trips the world until the op loop has lasted
// cfg.seconds and at least snapshotMinOps ops have run.
func runSnapshot(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	names := cfg.ln
	var w *simtest.World
	for i := 0; i < setupReps; i++ {
		w = nil
		start := now()
		var err error
		w, err = snapshotWorld(cfg.seed, cfg.snapshotEntries, snapshotCaches)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, now().Sub(start).Seconds())
	}
	var tk *track
	if cfg.tr != nil {
		tk = cfg.tr.track(0)
	}
	cpu0 := readCPU()
	loopStart := now()
	var imageBytes int
	for op := 0; op < snapshotMinOps || now().Sub(loopStart).Seconds() < cfg.seconds; op++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fresh, err := snapshotWorld(cfg.seed, 0, snapshotCaches)
		if err != nil {
			return nil, err
		}
		rep.timed.begin()
		tk.begin(names.op)
		buf, err := roundTrip(w, fresh, tk, names)
		tk.end()
		d := rep.timed.end()
		if err != nil {
			return nil, err
		}
		rep.attempted++
		rep.ops++
		rep.opMS = append(rep.opMS, ms(d))
		again, err := reencode(fresh)
		if err != nil {
			return nil, err
		}
		rep.exactOf++
		if why := checkSnapshot(buf, again); why != "" {
			rep.fail(why)
		} else {
			rep.exact++
		}
		imageBytes = len(buf)
	}
	rep.gcShare = gcShare(cpu0, readCPU())
	rep.layers["worldstate.bytes_per_entry"] = ratio(float64(imageBytes), float64(cfg.snapshotEntries))
	if cfg.tr != nil {
		rep.layers["simtest.capture_ms"] = cfg.tr.agg("simtest.World.Snapshot").mean(time.Millisecond)
		rep.layers["worldstate.encode_ms"] = cfg.tr.agg("worldstate.Encode").mean(time.Millisecond)
		rep.layers["worldstate.decode_ms"] = cfg.tr.agg("worldstate.Decode").mean(time.Millisecond)
		rep.layers["simtest.restore_ms"] = cfg.tr.agg("simtest.World.Restore").mean(time.Millisecond)
	}
	return rep, nil
}

// roundTrip is one op: the write path on src, the read path into dst.
// It returns the image.
func roundTrip(src, dst *simtest.World, tk *track, names *layerNames) ([]byte, error) {
	tk.begin(names.capture)
	img, err := src.Snapshot(nil)
	tk.end()
	if err != nil {
		return nil, err
	}
	tk.begin(names.encode)
	buf, err := worldstate.Encode(img)
	tk.end()
	if err != nil {
		return nil, err
	}
	tk.begin(names.decode)
	decoded, err := worldstate.Decode(buf)
	tk.end()
	if err != nil {
		return nil, err
	}
	tk.begin(names.restore)
	err = dst.Restore(decoded)
	tk.end()
	return buf, err
}
