package worldstate

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"dnscde/internal/dnscache"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/netsim/des"
	"dnscde/internal/platform"
)

// reader walks snapshot bytes with bounds checking. Every primitive
// returns ErrCorrupt-wrapped errors on truncation, and every count is
// validated against the bytes remaining before anything is allocated, so
// hostile length fields cannot drive huge allocations.
type reader struct {
	buf []byte
	off int
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, corrupt("need %d bytes at offset %d, have %d", n, r.off, r.remaining())
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

// count reads a u32 element count and validates it against the remaining
// bytes assuming each element occupies at least minElem bytes, bounding
// any allocation by the snapshot's actual size.
func (r *reader) count(minElem int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if minElem < 1 {
		minElem = 1
	}
	if int64(n)*int64(minElem) > int64(r.remaining()) {
		return 0, corrupt("count %d exceeds remaining %d bytes (min element %d)", n, r.remaining(), minElem)
	}
	return int(n), nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	b, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (r *reader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *reader) bool() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, corrupt("bool byte %d at offset %d", v, r.off-1)
	}
}

func (r *reader) addr() (netip.Addr, error) {
	n, err := r.u8()
	if err != nil {
		return netip.Addr{}, err
	}
	b, err := r.take(int(n))
	if err != nil {
		return netip.Addr{}, err
	}
	var a netip.Addr
	if err := a.UnmarshalBinary(b); err != nil {
		return netip.Addr{}, corrupt("address: %v", err)
	}
	return a, nil
}

// Decode parses snapshot bytes into an Image. It is pure: on any error it
// returns a nil Image and an error wrapping ErrCorrupt, and it never
// mutates anything outside its own return value — restoring into a world
// is a separate, validated step (simtest.World.Restore).
func Decode(buf []byte) (*Image, error) {
	r := &reader{buf: buf}
	head, err := r.take(len(magic))
	if err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, corrupt("bad magic %q", head)
	}
	version, err := r.u16()
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, corrupt("unsupported version %d (have %d)", version, Version)
	}

	img := &Image{}
	seen := make(map[uint16]bool)
	for r.remaining() > 0 {
		kind, err := r.u16()
		if err != nil {
			return nil, err
		}
		payload, err := r.bytes()
		if err != nil {
			return nil, err
		}
		if seen[kind] {
			return nil, corrupt("duplicate section %d", kind)
		}
		seen[kind] = true
		sr := &reader{buf: payload}
		switch kind {
		case sectionMeta:
			err = decodeMeta(sr, &img.Meta)
		case sectionNetwork:
			err = decodeNetwork(sr, &img.Network)
		case sectionPlatforms:
			err = decodePlatforms(sr, img)
		case sectionMetrics:
			err = decodeMetrics(sr, &img.Metrics)
		case sectionApp:
			img.App = append([]byte(nil), payload...)
			sr.off = len(payload)
		default:
			// Unknown section: skip for forward compatibility.
			sr.off = len(payload)
		}
		if err != nil {
			return nil, err
		}
		if sr.remaining() > 0 {
			return nil, corrupt("section %d has %d trailing bytes", kind, sr.remaining())
		}
	}
	for _, kind := range []uint16{sectionMeta, sectionNetwork, sectionPlatforms, sectionMetrics} {
		if !seen[kind] {
			return nil, corrupt("missing section %d", kind)
		}
	}
	return img, nil
}

func decodeMeta(r *reader, m *Meta) error {
	var err error
	if m.Seed, err = r.i64(); err != nil {
		return err
	}
	if m.ClockUnixNano, err = r.i64(); err != nil {
		return err
	}
	barrier, err := r.i64()
	if err != nil {
		return err
	}
	m.BarrierT = des.Time(barrier)
	if m.NextIngress, err = r.addr(); err != nil {
		return err
	}
	if m.NextEgress, err = r.addr(); err != nil {
		return err
	}
	if m.NextClient, err = r.addr(); err != nil {
		return err
	}
	cursor, err := r.u64()
	if err != nil {
		return err
	}
	if cursor > uint64(int(^uint(0)>>1)) {
		return corrupt("session cursor %d overflows int", cursor)
	}
	m.SessionCursor = int(cursor)
	return nil
}

func decodeNetwork(r *reader, n *Network) error {
	// Each source is at least: 1-byte addr len + 8-byte draws + 4-byte
	// flow count.
	numSources, err := r.count(13)
	if err != nil {
		return err
	}
	if numSources > 0 {
		n.Sources = make([]netsim.SourceState, 0, numSources)
	}
	for i := 0; i < numSources; i++ {
		var src netsim.SourceState
		if src.Addr, err = r.addr(); err != nil {
			return err
		}
		if !src.Addr.IsValid() {
			return corrupt("source %d: invalid address", i)
		}
		if src.Draws, err = r.u64(); err != nil {
			return err
		}
		numFlows, err := r.count(10) // addr len byte + i64 n + flags
		if err != nil {
			return err
		}
		if numFlows > 0 {
			src.Flows = make([]netsim.FlowSnapshot, 0, numFlows)
		}
		for j := 0; j < numFlows; j++ {
			var f netsim.FlowSnapshot
			if f.Dst, err = r.addr(); err != nil {
				return err
			}
			if !f.Dst.IsValid() {
				return corrupt("source %v flow %d: invalid destination", src.Addr, j)
			}
			nn, err := r.i64()
			if err != nil {
				return err
			}
			if nn < 0 || nn > int64(int(^uint(0)>>1)) {
				return corrupt("source %v flow %d: exchange count %d out of range", src.Addr, j, nn)
			}
			f.N = int(nn)
			flags, err := r.u8()
			if err != nil {
				return err
			}
			if flags > 3 {
				return corrupt("source %v flow %d: flag byte %d", src.Addr, j, flags)
			}
			f.SrcBad = flags&1 != 0
			f.DstBad = flags&2 != 0
			src.Flows = append(src.Flows, f)
		}
		n.Sources = append(n.Sources, src)
	}
	return nil
}

func decodePlatforms(r *reader, img *Image) error {
	numPlatforms, err := r.count(4)
	if err != nil {
		return err
	}
	if numPlatforms > 0 {
		img.Platforms = make([]Platform, 0, numPlatforms)
	}
	for i := 0; i < numPlatforms; i++ {
		var p Platform
		if p.Name, err = r.str(); err != nil {
			return err
		}
		var st platform.CheckpointState
		if st.Selector.Kind, err = r.str(); err != nil {
			return err
		}
		pos, err := r.i64()
		if err != nil {
			return err
		}
		if pos < 0 || pos > int64(int(^uint(0)>>1)) {
			return corrupt("platform %s: selector pos %d out of range", p.Name, pos)
		}
		st.Selector.Pos = int(pos)
		if st.Selector.Draws, err = r.u64(); err != nil {
			return err
		}
		rr, err := r.i64()
		if err != nil {
			return err
		}
		if rr < 0 || rr > int64(int(^uint(0)>>1)) {
			return corrupt("platform %s: egress cursor %d out of range", p.Name, rr)
		}
		st.EgressRR = int(rr)
		if st.RNGDraws, err = r.u64(); err != nil {
			return err
		}
		numDown, err := r.count(1)
		if err != nil {
			return err
		}
		st.Down = make([]bool, numDown)
		for j := range st.Down {
			if st.Down[j], err = r.bool(); err != nil {
				return err
			}
		}
		p.State = st
		numCaches, err := r.count(4)
		if err != nil {
			return err
		}
		if numCaches > 0 {
			p.Caches = make([]CacheState, 0, numCaches)
		}
		for j := 0; j < numCaches; j++ {
			var c CacheState
			if c.ID, err = r.str(); err != nil {
				return err
			}
			numItems, err := r.count(24) // key len + two i64 stamps + wire len
			if err != nil {
				return err
			}
			if numItems > 0 {
				c.Items = make([]dnscache.ItemState, 0, numItems)
			}
			for k := 0; k < numItems; k++ {
				var it dnscache.ItemState
				if it.Key, err = r.str(); err != nil {
					return err
				}
				stored, err := r.i64()
				if err != nil {
					return err
				}
				expires, err := r.i64()
				if err != nil {
					return err
				}
				it.Stored = time.Unix(0, stored).UTC()
				it.Expires = time.Unix(0, expires).UTC()
				wire, err := r.bytes()
				if err != nil {
					return err
				}
				if it.Entry, err = decodeEntry(wire); err != nil {
					return err
				}
				c.Items = append(c.Items, it)
			}
			p.Caches = append(p.Caches, c)
		}
		img.Platforms = append(img.Platforms, p)
	}
	return nil
}

func decodeMetrics(r *reader, s *metrics.Snapshot) error {
	numCounters, err := r.count(12) // name len + i64 value
	if err != nil {
		return err
	}
	if numCounters > 0 {
		s.Counters = make(map[string]int64, numCounters)
	}
	var prev string
	for i := 0; i < numCounters; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		if i > 0 && name <= prev {
			return corrupt("counters not in sorted order (%q after %q)", name, prev)
		}
		prev = name
		v, err := r.i64()
		if err != nil {
			return err
		}
		s.Counters[name] = v
	}
	numHists, err := r.count(28) // name len + two counts + count + sum
	if err != nil {
		return err
	}
	if numHists > 0 {
		s.Histograms = make(map[string]metrics.HistogramSnapshot, numHists)
	}
	prev = ""
	for i := 0; i < numHists; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		if i > 0 && name <= prev {
			return corrupt("histograms not in sorted order (%q after %q)", name, prev)
		}
		prev = name
		var h metrics.HistogramSnapshot
		numBounds, err := r.count(8)
		if err != nil {
			return err
		}
		h.Bounds = make([]int64, numBounds)
		for j := range h.Bounds {
			if h.Bounds[j], err = r.i64(); err != nil {
				return err
			}
		}
		numBuckets, err := r.count(8)
		if err != nil {
			return err
		}
		if numBuckets != numBounds+1 {
			return corrupt("histogram %q has %d buckets for %d bounds", name, numBuckets, numBounds)
		}
		h.Buckets = make([]int64, numBuckets)
		for j := range h.Buckets {
			if h.Buckets[j], err = r.i64(); err != nil {
				return err
			}
		}
		if h.Count, err = r.i64(); err != nil {
			return err
		}
		if h.Sum, err = r.i64(); err != nil {
			return err
		}
		s.Histograms[name] = h
	}
	return nil
}
