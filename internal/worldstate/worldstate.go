// Package worldstate serializes the full state of a running simulated
// world at a simulated-time barrier — DNS cache contents with their decay
// clocks, load-balancer chain positions, per-source RNG stream positions,
// fault-model chain state, the discrete-event clock and the metrics
// registry — into a versioned, length-prefixed binary snapshot, and
// decodes such snapshots back into an Image a fresh world can be restored
// from.
//
// The design follows gvisor's sentry save/restore split: this package
// owns the *format* (a pure value ↔ bytes codec with no knowledge of live
// worlds), while simtest.World owns the *orchestration* (quiescence
// checks, walking live objects into an Image, overlaying an Image onto a
// fresh world). Keeping the codec pure means Decode can never partially
// mutate anything: it either returns a complete Image or a typed
// ErrCorrupt.
//
// Two properties the format is built around:
//
//   - Canonical bytes. Every map is sorted before encoding and no
//     worker/shard/lane count is recorded, so two worlds that performed
//     the same simulated work produce byte-identical snapshots regardless
//     of how the work was scheduled. The divergence bisector (cdebench
//     -exp bisect) is built directly on this: compare snapshot bytes at a
//     barrier, and any difference is a real state divergence.
//
//   - Replay-based RNG capture. Random streams are pure functions of
//     deterministic seeds, so the snapshot stores stream *positions*
//     (draw counts), not generator internals. Restore re-derives each
//     stream from its seed and fast-forwards — exact, compact, and
//     independent of math/rand's internal state layout.
//
// See DESIGN.md §14 for the full format specification and the list of
// state deliberately not captured.
package worldstate

import (
	"errors"
	"fmt"
	"net/netip"

	"dnscde/internal/dnscache"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/netsim/des"
	"dnscde/internal/platform"
)

// Typed errors. Callers branch on these with errors.Is.
var (
	// ErrCorrupt reports snapshot bytes that do not decode: wrong magic,
	// unsupported version, truncated or overrunning sections, or payloads
	// that fail validation. Decode returns it without mutating anything.
	ErrCorrupt = errors.New("worldstate: corrupt snapshot")
	// ErrBusy reports a snapshot attempt outside a quiescent barrier —
	// events still pending in the scheduler or exchanges in flight.
	ErrBusy = errors.New("worldstate: world is not at a quiescent barrier")
	// ErrMismatch reports a restore into a world whose configuration
	// (seed, platform layout, cache counts, selector strategies) does not
	// match the snapshot. The target world is left unmodified.
	ErrMismatch = errors.New("worldstate: snapshot does not match world configuration")
)

// Version is the current snapshot format version. Decode rejects any
// other value; the version is bumped on any incompatible layout change.
const Version = 2

// magic identifies a worldstate snapshot. Eight bytes, like a tar or ELF
// magic, so file(1)-style sniffing is trivial.
const magic = "CDEWSNAP"

// Section kinds. Each section is encoded as u16 kind + u32 length +
// payload; unknown kinds are skipped on decode for forward compatibility.
const (
	sectionMeta      = 1
	sectionNetwork   = 2
	sectionPlatforms = 3
	sectionMetrics   = 4
	sectionApp       = 5
)

// Meta is the world-level scalar state: identity, clocks and allocator
// cursors.
type Meta struct {
	// Seed is the world's root seed; restore validates it against the
	// fresh world so a snapshot cannot silently overlay a different run.
	Seed int64
	// ClockUnixNano is the virtual wall clock at the barrier (TTL decay
	// arithmetic runs on it).
	ClockUnixNano int64
	// BarrierT is the discrete-event clock at the barrier.
	BarrierT des.Time
	// NextIngress, NextEgress and NextClient are the world's address-
	// allocator cursors; client addresses select per-source RNG streams,
	// so the cursor is part of the deterministic state.
	NextIngress netip.Addr
	NextEgress  netip.Addr
	NextClient  netip.Addr
	// SessionCursor is the measurement infrastructure's session-ID
	// allocator position (probe names derive from it).
	SessionCursor int
}

// Network is the simulated-Internet state: every per-source RNG/fault
// stream.
type Network struct {
	Sources []netsim.SourceState
}

// Platform is one resolution platform's state: chain positions plus
// every cache's contents.
type Platform struct {
	Name   string
	State  platform.CheckpointState
	Caches []CacheState
}

// CacheState is one DNS cache's contents.
type CacheState struct {
	ID    string
	Items []dnscache.ItemState
}

// Image is a fully decoded snapshot: everything needed to overlay a fresh
// world built from the same scenario so it continues byte-identically.
type Image struct {
	Meta      Meta
	Network   Network
	Platforms []Platform
	Metrics   metrics.Snapshot
	// App is an opaque application-level payload (the scenario layer
	// records which trial/workload the barrier sits at); the codec
	// round-trips it without interpretation.
	App []byte
}

// encodeEntry packs a cache entry through the real DNS wire codec: a
// synthetic response message carrying the entry's records. Reusing the
// wire format means the snapshot exercises exactly the bytes a real
// deployment would emit and inherits the codec's fuzz coverage.
func encodeEntry(e dnscache.Entry) ([]byte, error) {
	m := &dnswire.Message{
		Header:    dnswire.Header{Response: true, RCode: e.RCode},
		Answer:    e.Records,
		Authority: e.Authority,
	}
	wire, err := m.Pack()
	if err != nil {
		return nil, fmt.Errorf("worldstate: pack cache entry: %w", err)
	}
	return wire, nil
}

// decodeEntry reverses encodeEntry.
func decodeEntry(wire []byte) (dnscache.Entry, error) {
	m, err := dnswire.Unpack(wire)
	if err != nil {
		return dnscache.Entry{}, fmt.Errorf("%w: cache entry: %w", ErrCorrupt, err)
	}
	return dnscache.Entry{Records: m.Answer, RCode: m.Header.RCode, Authority: m.Authority}, nil
}
