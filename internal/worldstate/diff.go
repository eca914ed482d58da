package worldstate

import (
	"fmt"
	"sort"
)

// Diff compares two decoded snapshots and describes the first difference
// it finds, walking section by section in encoding order — the divergence
// bisector uses it to turn "the snapshot bytes differ at barrier T" into
// an actionable "which subsystem's state diverged first" report. Returns
// "" when the images are identical.
func Diff(a, b *Image) string {
	if d := diffMeta(a.Meta, b.Meta); d != "" {
		return "meta: " + d
	}
	if d := diffNetwork(a.Network, b.Network); d != "" {
		return "network: " + d
	}
	if d := diffPlatforms(a.Platforms, b.Platforms); d != "" {
		return "platforms: " + d
	}
	if d := diffMetrics(a, b); d != "" {
		return "metrics: " + d
	}
	if string(a.App) != string(b.App) {
		return fmt.Sprintf("app payload differs (%d vs %d bytes)", len(a.App), len(b.App))
	}
	return ""
}

func diffMeta(a, b Meta) string {
	switch {
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.ClockUnixNano != b.ClockUnixNano:
		return fmt.Sprintf("virtual clock %d vs %d ns", a.ClockUnixNano, b.ClockUnixNano)
	case a.BarrierT != b.BarrierT:
		return fmt.Sprintf("event clock %d vs %d", a.BarrierT, b.BarrierT)
	case a.NextIngress != b.NextIngress:
		return fmt.Sprintf("ingress allocator %v vs %v", a.NextIngress, b.NextIngress)
	case a.NextEgress != b.NextEgress:
		return fmt.Sprintf("egress allocator %v vs %v", a.NextEgress, b.NextEgress)
	case a.NextClient != b.NextClient:
		return fmt.Sprintf("client allocator %v vs %v", a.NextClient, b.NextClient)
	case a.SessionCursor != b.SessionCursor:
		return fmt.Sprintf("session cursor %d vs %d", a.SessionCursor, b.SessionCursor)
	}
	return ""
}

func diffNetwork(a, b Network) string {
	if len(a.Sources) != len(b.Sources) {
		return fmt.Sprintf("%d vs %d sources", len(a.Sources), len(b.Sources))
	}
	for i := range a.Sources {
		sa, sb := a.Sources[i], b.Sources[i]
		if sa.Addr != sb.Addr {
			return fmt.Sprintf("source %d is %v vs %v", i, sa.Addr, sb.Addr)
		}
		if sa.Draws != sb.Draws {
			return fmt.Sprintf("source %v drew %d vs %d values", sa.Addr, sa.Draws, sb.Draws)
		}
		if len(sa.Flows) != len(sb.Flows) {
			return fmt.Sprintf("source %v has %d vs %d flows", sa.Addr, len(sa.Flows), len(sb.Flows))
		}
		for j := range sa.Flows {
			if sa.Flows[j] != sb.Flows[j] {
				return fmt.Sprintf("source %v flow %v: %+v vs %+v", sa.Addr, sa.Flows[j].Dst, sa.Flows[j], sb.Flows[j])
			}
		}
	}
	return ""
}

func diffPlatforms(a, b []Platform) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d platforms", len(a), len(b))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.Name != pb.Name {
			return fmt.Sprintf("platform %d is %q vs %q", i, pa.Name, pb.Name)
		}
		if pa.State.Selector != pb.State.Selector {
			return fmt.Sprintf("%s selector %+v vs %+v", pa.Name, pa.State.Selector, pb.State.Selector)
		}
		if pa.State.EgressRR != pb.State.EgressRR || pa.State.RNGDraws != pb.State.RNGDraws {
			return fmt.Sprintf("%s egress cursor/draws (%d,%d) vs (%d,%d)",
				pa.Name, pa.State.EgressRR, pa.State.RNGDraws, pb.State.EgressRR, pb.State.RNGDraws)
		}
		if fmt.Sprint(pa.State.Down) != fmt.Sprint(pb.State.Down) {
			return fmt.Sprintf("%s down flags %v vs %v", pa.Name, pa.State.Down, pb.State.Down)
		}
		if d := diffCaches(pa.Caches, pb.Caches); d != "" {
			return pa.Name + ": " + d
		}
	}
	return ""
}

func diffCaches(a, b []CacheState) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d caches", len(a), len(b))
	}
	for i := range a {
		ca, cb := a[i], b[i]
		if ca.ID != cb.ID {
			return fmt.Sprintf("cache %d is %q vs %q", i, ca.ID, cb.ID)
		}
		if len(ca.Items) != len(cb.Items) {
			return fmt.Sprintf("%s holds %d vs %d entries", ca.ID, len(ca.Items), len(cb.Items))
		}
		for j := range ca.Items {
			ia, ib := ca.Items[j], cb.Items[j]
			if ia.Key != ib.Key {
				return fmt.Sprintf("%s entry %d (LRU order) keyed %q vs %q", ca.ID, j, ia.Key, ib.Key)
			}
			if !ia.Stored.Equal(ib.Stored) || !ia.Expires.Equal(ib.Expires) {
				return fmt.Sprintf("%s entry %q stamps (%v,%v) vs (%v,%v)",
					ca.ID, ia.Key, ia.Stored, ia.Expires, ib.Stored, ib.Expires)
			}
			wa, errA := encodeEntry(ia.Entry)
			wb, errB := encodeEntry(ib.Entry)
			if errA != nil || errB != nil || string(wa) != string(wb) {
				return fmt.Sprintf("%s entry %q payload differs", ca.ID, ia.Key)
			}
		}
	}
	return ""
}

func diffMetrics(a, b *Image) string {
	names := make(map[string]bool)
	for name := range a.Metrics.Counters {
		names[name] = true
	}
	for name := range b.Metrics.Counters {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		va, okA := a.Metrics.Counters[name]
		vb, okB := b.Metrics.Counters[name]
		if okA != okB || va != vb {
			return fmt.Sprintf("counter %q = %d (present=%v) vs %d (present=%v)", name, va, okA, vb, okB)
		}
	}
	if len(a.Metrics.Histograms) != len(b.Metrics.Histograms) {
		return fmt.Sprintf("%d vs %d histograms", len(a.Metrics.Histograms), len(b.Metrics.Histograms))
	}
	for name, ha := range a.Metrics.Histograms {
		hb, ok := b.Metrics.Histograms[name]
		if !ok {
			return fmt.Sprintf("histogram %q present vs absent", name)
		}
		if ha.Count != hb.Count || ha.Sum != hb.Sum ||
			fmt.Sprint(ha.Bounds) != fmt.Sprint(hb.Bounds) ||
			fmt.Sprint(ha.Buckets) != fmt.Sprint(hb.Buckets) {
			return fmt.Sprintf("histogram %q differs (count %d vs %d, sum %d vs %d)", name, ha.Count, hb.Count, ha.Sum, hb.Sum)
		}
	}
	return ""
}
