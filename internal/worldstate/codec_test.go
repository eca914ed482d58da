package worldstate

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnscde/internal/dnscache"
	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
)

// sampleImage builds a representative snapshot exercising every section
// and every field kind: multiple RNG sources with fault-chain flows,
// two platforms with different selector kinds, positive and negative
// cache entries, counters, histograms and an app payload.
func sampleImage() *Image {
	stored := time.Date(2017, time.June, 26, 0, 0, 42, 0, time.UTC)
	return &Image{
		Meta: Meta{
			Seed:          7,
			ClockUnixNano: stored.Add(90 * time.Second).UnixNano(),
			BarrierT:      123456789,
			NextIngress:   netip.MustParseAddr("10.10.0.3"),
			NextEgress:    netip.MustParseAddr("10.20.0.5"),
			NextClient:    netip.MustParseAddr("10.30.0.9"),
			SessionCursor: 41,
		},
		Network: Network{
			Sources: []netsim.SourceState{
				{
					Addr:  netip.MustParseAddr("10.30.0.1"),
					Draws: 17,
					Flows: []netsim.FlowSnapshot{
						{Dst: netip.MustParseAddr("10.10.0.1"), N: 4, SrcBad: true},
						{Dst: netip.MustParseAddr("203.0.113.20"), N: 9, DstBad: true},
					},
				},
				{Addr: netip.MustParseAddr("10.30.0.2"), Draws: 3},
			},
		},
		Platforms: []Platform{
			{
				Name: "resolver",
				State: platform.CheckpointState{
					Selector: loadbal.State{Kind: "round-robin", Pos: 2},
					EgressRR: 1,
					RNGDraws: 12,
					Down:     []bool{false, true, false},
				},
				Caches: []CacheState{
					{
						ID: "resolver-c0",
						Items: []dnscache.ItemState{
							{
								Key: "a.probe.cache.example.|IN|A",
								Entry: dnscache.Entry{
									Records: []dnswire.RR{{
										Name: "a.probe.cache.example.", Class: dnswire.ClassIN, TTL: 60,
										Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.80")},
									}},
								},
								Stored:  stored,
								Expires: stored.Add(60 * time.Second),
							},
							{
								Key: "nx.probe.cache.example.|IN|A",
								Entry: dnscache.Entry{
									RCode: dnswire.RCodeNXDomain,
									Authority: []dnswire.RR{{
										Name: "cache.example.", Class: dnswire.ClassIN, TTL: 30,
										Data: dnswire.SOARecord{MName: "ns.cache.example.", RName: "root.cache.example.", Serial: 1, Minimum: 30},
									}},
								},
								Stored:  stored,
								Expires: stored.Add(30 * time.Second),
							},
						},
					},
					{ID: "resolver-c1"},
					{ID: "resolver-c2"},
				},
			},
			{
				Name: "forwarder",
				State: platform.CheckpointState{
					Selector: loadbal.State{Kind: "random", Draws: 99},
					Down:     []bool{false},
				},
				Caches: []CacheState{{ID: "forwarder-c0"}},
			},
		},
		Metrics: metrics.Snapshot{
			Counters: map[string]int64{
				"core.probes.sent":                 25,
				"dnscache.hits.resolver-c0":        10,
				"netsim.faults.servfail":           2,
				"netsim.packets.sent":              200,
				"platform.upstream_fail.forwarder": 1,
				"zero.counter":                     0,
			},
			Histograms: map[string]metrics.HistogramSnapshot{
				"netsim.rtt.us": {Bounds: []int64{100, 1000, 10000}, Buckets: []int64{5, 10, 2, 0}, Count: 17, Sum: 31234},
			},
		},
		App: []byte(`{"scenario":"x","trial":0,"barrier":1}`),
	}
}

// TestEncodeDecodeRoundTrip locks the codec's core contract: Encode then
// Decode reproduces the image exactly (per Diff), and re-encoding the
// decoded image reproduces the bytes exactly — the canonical-bytes
// property the bisector compares on.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := sampleImage()
	buf, err := Encode(img)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.HasPrefix(buf, []byte(magic)) {
		t.Errorf("snapshot does not start with magic %q", magic)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d := Diff(img, got); d != "" {
		t.Errorf("decoded image differs: %s", d)
	}
	buf2, err := Encode(got)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Error("re-encoded snapshot bytes differ from original")
	}
}

// TestEncodeSortsMetrics asserts canonical bytes do not depend on map
// iteration order: two images with the same metrics encode identically
// (run enough times that Go's randomized map order would expose an
// order-dependent encoder).
func TestEncodeSortsMetrics(t *testing.T) {
	var first []byte
	for i := 0; i < 20; i++ {
		buf, err := Encode(sampleImage())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf
		} else if !bytes.Equal(first, buf) {
			t.Fatal("Encode is not deterministic across runs")
		}
	}
}

// TestDecodeRejectsCorruption walks a table of deliberately damaged
// snapshots; each must fail with ErrCorrupt and never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid, err := Encode(sampleImage())
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func() []byte{
		"empty": func() []byte { return nil },
		"short magic": func() []byte {
			return valid[:4]
		},
		"bad magic": func() []byte {
			b := append([]byte(nil), valid...)
			b[0] = 'X'
			return b
		},
		"bad version": func() []byte {
			b := append([]byte(nil), valid...)
			b[8], b[9] = 0xff, 0xff
			return b
		},
		"truncated mid-section": func() []byte {
			return valid[:len(valid)/2]
		},
		"trailing garbage": func() []byte {
			return append(append([]byte(nil), valid...), 0xde, 0xad)
		},
		"section length overruns buffer": func() []byte {
			b := append([]byte(nil), valid...)
			// First section header sits right after magic+version: kind
			// at [10:12], length at [12:16]. Claim more payload than
			// the buffer holds.
			b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
			return b
		},
		"duplicate section": func() []byte {
			// Append a second copy of the first section (META).
			b := append([]byte(nil), valid...)
			secLen := 16 + int(uint32(b[12])<<24|uint32(b[13])<<16|uint32(b[14])<<8|uint32(b[15]))
			return append(b, b[10:secLen]...)
		},
		"missing required section": func() []byte {
			// Keep header but drop every section.
			return valid[:10]
		},
		"version 1 header": func() []byte {
			// A snapshot from before the counter mirrors were dropped.
			b := append([]byte(nil), valid...)
			b[8], b[9] = 0, 1
			return b
		},
	}
	wantMsg := map[string]string{"version 1 header": "unsupported version 1"}
	for name, make := range damage {
		t.Run(name, func(t *testing.T) {
			img, err := Decode(make())
			if err == nil {
				t.Fatal("Decode accepted damaged snapshot")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
			if want := wantMsg[name]; !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want it to say %q", err, want)
			}
			if img != nil {
				t.Error("Decode returned a partial image alongside an error")
			}
		})
	}
}

// TestDecodeSkipsUnknownSections locks forward compatibility: a snapshot
// with an extra unknown section kind decodes fine and the known content
// is intact.
func TestDecodeSkipsUnknownSections(t *testing.T) {
	img := sampleImage()
	valid, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	// Splice an unknown section (kind 999, 3-byte payload) after the header.
	unknown := []byte{0x03, 0xe7, 0x00, 0x00, 0x00, 0x03, 0xaa, 0xbb, 0xcc}
	spliced := append(append(append([]byte(nil), valid[:10]...), unknown...), valid[10:]...)
	got, err := Decode(spliced)
	if err != nil {
		t.Fatalf("Decode with unknown section: %v", err)
	}
	if d := Diff(img, got); d != "" {
		t.Errorf("unknown section disturbed decoding: %s", d)
	}
}

// TestDiffReportsFirstDivergence spot-checks the bisector's diff
// explainer on a few mutated fields.
func TestDiffReportsFirstDivergence(t *testing.T) {
	a := sampleImage()
	if d := Diff(a, sampleImage()); d != "" {
		t.Fatalf("identical images diff as %q", d)
	}
	b := sampleImage()
	b.Meta.BarrierT++
	if d := Diff(a, b); d == "" {
		t.Error("event-clock divergence not reported")
	}
	c := sampleImage()
	c.Network.Sources[0].Draws++
	if d := Diff(a, c); d == "" {
		t.Error("RNG stream divergence not reported")
	}
	e := sampleImage()
	e.Platforms[0].Caches[0].Items[0].Expires = e.Platforms[0].Caches[0].Items[0].Expires.Add(time.Second)
	if d := Diff(a, e); d == "" {
		t.Error("cache entry stamp divergence not reported")
	}
	m := sampleImage()
	m.Metrics.Counters["core.probes.sent"]++
	if d := Diff(a, m); d == "" {
		t.Error("counter divergence not reported")
	}
}
