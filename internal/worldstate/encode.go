package worldstate

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
)

// writer accumulates the snapshot bytes. All integers are big-endian;
// variable-length data is u32-length-prefixed.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }

func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// addr encodes a netip.Addr as length-prefixed MarshalBinary bytes
// (0 = invalid/zero address, 4 = IPv4, 16 = IPv6).
func (w *writer) addr(a netip.Addr) error {
	b, err := a.MarshalBinary()
	if err != nil {
		return fmt.Errorf("worldstate: encode address %v: %w", a, err)
	}
	if len(b) > 255 {
		return fmt.Errorf("worldstate: encode address %v: unexpected %d-byte form", a, len(b))
	}
	w.u8(uint8(len(b)))
	w.buf = append(w.buf, b...)
	return nil
}

// section appends one (kind, length, payload) record built by fn.
func (w *writer) section(kind uint16, fn func(*writer) error) error {
	var body writer
	if err := fn(&body); err != nil {
		return err
	}
	w.u16(kind)
	w.bytes(body.buf)
	return nil
}

// Encode serializes an Image into the versioned binary snapshot format.
// The encoding is canonical: identical Images produce identical bytes
// (maps are emitted in sorted order), so snapshot bytes can be compared
// directly to detect state divergence.
func Encode(img *Image) ([]byte, error) {
	var w writer
	w.buf = append(w.buf, magic...)
	w.u16(Version)

	err := w.section(sectionMeta, func(b *writer) error {
		b.i64(img.Meta.Seed)
		b.i64(img.Meta.ClockUnixNano)
		b.i64(int64(img.Meta.BarrierT))
		for _, a := range []netip.Addr{img.Meta.NextIngress, img.Meta.NextEgress, img.Meta.NextClient} {
			if err := b.addr(a); err != nil {
				return err
			}
		}
		b.u64(uint64(img.Meta.SessionCursor))
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = w.section(sectionNetwork, func(b *writer) error {
		b.u32(uint32(len(img.Network.Sources)))
		for _, src := range img.Network.Sources {
			if err := b.addr(src.Addr); err != nil {
				return err
			}
			b.u64(src.Draws)
			b.u32(uint32(len(src.Flows)))
			for _, f := range src.Flows {
				if err := b.addr(f.Dst); err != nil {
					return err
				}
				b.i64(int64(f.N))
				var flags uint8
				if f.SrcBad {
					flags |= 1
				}
				if f.DstBad {
					flags |= 2
				}
				b.u8(flags)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = w.section(sectionPlatforms, func(b *writer) error {
		b.u32(uint32(len(img.Platforms)))
		for _, p := range img.Platforms {
			b.str(p.Name)
			b.str(p.State.Selector.Kind)
			b.i64(int64(p.State.Selector.Pos))
			b.u64(p.State.Selector.Draws)
			b.i64(int64(p.State.EgressRR))
			b.u64(p.State.RNGDraws)
			b.u32(uint32(len(p.State.Down)))
			for _, d := range p.State.Down {
				b.bool(d)
			}
			b.u32(uint32(len(p.Caches)))
			for _, c := range p.Caches {
				b.str(c.ID)
				b.u32(uint32(len(c.Items)))
				for _, it := range c.Items {
					b.str(it.Key)
					b.i64(it.Stored.UnixNano())
					b.i64(it.Expires.UnixNano())
					wire, err := encodeEntry(it.Entry)
					if err != nil {
						return err
					}
					b.bytes(wire)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = w.section(sectionMetrics, func(b *writer) error {
		counterNames := make([]string, 0, len(img.Metrics.Counters))
		for name := range img.Metrics.Counters {
			counterNames = append(counterNames, name)
		}
		sort.Strings(counterNames)
		b.u32(uint32(len(counterNames)))
		for _, name := range counterNames {
			b.str(name)
			b.i64(img.Metrics.Counters[name])
		}
		histNames := make([]string, 0, len(img.Metrics.Histograms))
		for name := range img.Metrics.Histograms {
			histNames = append(histNames, name)
		}
		sort.Strings(histNames)
		b.u32(uint32(len(histNames)))
		for _, name := range histNames {
			h := img.Metrics.Histograms[name]
			b.str(name)
			b.u32(uint32(len(h.Bounds)))
			for _, v := range h.Bounds {
				b.i64(v)
			}
			b.u32(uint32(len(h.Buckets)))
			for _, v := range h.Buckets {
				b.i64(v)
			}
			b.i64(h.Count)
			b.i64(h.Sum)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if len(img.App) > 0 {
		err = w.section(sectionApp, func(b *writer) error {
			b.buf = append(b.buf, img.App...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	return w.buf, nil
}
