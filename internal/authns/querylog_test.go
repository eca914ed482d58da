package authns

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"dnscde/internal/dnswire"
)

// Session zones of the randomised logs. s11 is the sibling-prefix trap
// for s1: it ends in the same characters but is not under s1.
var propZones = []string{
	"s1.cache.example.",
	"s11.cache.example.",
	"S2.Cache.Example.",
	"other.example.",
}

// propSuffixes are the readout scopes checked against the brute force:
// the root in both spellings, every ancestor, mixed case, names equal to
// an entry's name, and suffixes that match only by characters, never by
// label ("1.cache.example." inside "s1", "e." inside "example").
var propSuffixes = []string{
	"", ".", "example.", "EXAMPLE", "cache.example.", "Cache.Example",
	"s1.cache.example.", "S1.CACHE.EXAMPLE", "s11.cache.example.",
	"s2.cache.example.", "other.example.", "x-3.s1.cache.example.",
	"_dmarc.s2.cache.example.", "1.cache.example.", "e.", "missing.example.",
}

var propTypes = []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeMX, dnswire.TypeAAAA}

// propEntry draws one entry under zone: the zone itself, a probe name
// below it or a deeper name, in random letter case and sometimes without
// the trailing dot.
func propEntry(rng *rand.Rand, zone string) LogEntry {
	var name string
	switch rng.Intn(4) {
	case 0:
		name = zone
	case 1:
		name = "_dmarc." + zone
	default:
		name = fmt.Sprintf("x-%d.%s", rng.Intn(6), zone)
	}
	b := []byte(name)
	for i := range b {
		if 'a' <= b[i] && b[i] <= 'z' && rng.Intn(5) == 0 {
			b[i] -= 'a' - 'A'
		}
	}
	if rng.Intn(4) == 0 {
		b = b[:len(b)-1]
	}
	return LogEntry{
		Src:  netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(7))}),
		Q:    dnswire.Question{Name: string(b), Type: propTypes[rng.Intn(len(propTypes))], Class: dnswire.ClassIN},
		EDNS: rng.Intn(2) == 0,
	}
}

// bruteUnder filters a copy of the whole log with dnswire.IsSubdomain.
func bruteUnder(all []LogEntry, suffix string) []LogEntry {
	var out []LogEntry
	for _, e := range all {
		if dnswire.IsSubdomain(e.Q.Name, suffix) {
			out = append(out, e)
		}
	}
	return out
}

// checkReadouts compares every scoped readout of l with the brute force.
func checkReadouts(t *testing.T, l *QueryLog) {
	t.Helper()
	all := l.Entries()
	for _, suffix := range propSuffixes {
		under := bruteUnder(all, suffix)
		var exact []LogEntry
		for _, e := range under {
			if dnswire.CanonicalName(e.Q.Name) == dnswire.CanonicalName(suffix) {
				exact = append(exact, e)
			}
		}

		if got := l.CountSuffix(suffix); got != len(under) {
			t.Errorf("CountSuffix(%q) = %d, want %d", suffix, got, len(under))
		}
		if got := l.CountName(suffix); got != len(exact) {
			t.Errorf("CountName(%q) = %d, want %d", suffix, got, len(exact))
		}
		exactTypes := map[dnswire.Type]int{}
		maxType := 0
		for _, e := range exact {
			exactTypes[e.Q.Type]++
			maxType = max(maxType, exactTypes[e.Q.Type])
		}
		for _, typ := range propTypes {
			if got := l.CountNameType(suffix, typ); got != exactTypes[typ] {
				t.Errorf("CountNameType(%q, %v) = %d, want %d", suffix, typ, got, exactTypes[typ])
			}
		}
		if got := l.CountNameMaxType(suffix); got != maxType {
			t.Errorf("CountNameMaxType(%q) = %d, want %d", suffix, got, maxType)
		}

		var sources []netip.Addr
		byType := map[dnswire.Type]int{}
		edns := 0
		for _, e := range under {
			if !slices.Contains(sources, e.Src) {
				sources = append(sources, e.Src)
			}
			byType[e.Q.Type]++
			if e.EDNS {
				edns++
			}
		}
		if got := l.DistinctSources(suffix); !slices.Equal(got, sources) {
			t.Errorf("DistinctSources(%q) = %v, want %v (first-seen order)", suffix, got, sources)
		}
		if got := l.CountByType(suffix); !maps.Equal(got, byType) {
			t.Errorf("CountByType(%q) = %v, want %v", suffix, got, byType)
		}
		wantShare := 0.0
		if len(under) > 0 {
			wantShare = float64(edns) / float64(len(under))
		}
		if got := l.EDNSShare(suffix); got != wantShare {
			t.Errorf("EDNSShare(%q) = %v, want %v", suffix, got, wantShare)
		}

		for _, cursor := range []int{0, len(under) / 2, len(under), len(under) + 3} {
			got, next := l.EntriesSince(suffix, cursor)
			want := under[min(cursor, len(under)):]
			if !slices.Equal(got, want) || next != len(under) {
				t.Errorf("EntriesSince(%q, %d) = %d entries, next %d; want %d, next %d",
					suffix, cursor, len(got), next, len(want), len(under))
			}
		}
	}
}

// TestQueryLogScopedReadoutsMatchBruteForce: on randomised logs of
// interleaved sessions, every indexed readout agrees with a brute-force
// IsSubdomain filter over Entries(), and each session's cursor returns
// exactly the later arrivals of its own zone.
func TestQueryLogScopedReadoutsMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var l QueryLog
			cursors := make([]int, len(propZones))
			pending := make([][]LogEntry, len(propZones))
			for step := 0; step < 400; step++ {
				z := rng.Intn(len(propZones))
				switch rng.Intn(10) {
				case 0:
					// A root-name or unnamed query, outside every session.
					l.Append(LogEntry{Q: dnswire.Question{Name: [...]string{"", "."}[rng.Intn(2)]}})
				case 1, 2:
					// The session reads its new arrivals.
					got, next := l.EntriesSince(propZones[z], cursors[z])
					if !slices.Equal(got, pending[z]) {
						t.Fatalf("step %d: EntriesSince(%q, %d) = %v, want %v", step, propZones[z], cursors[z], got, pending[z])
					}
					cursors[z], pending[z] = next, nil
				default:
					e := propEntry(rng, propZones[z])
					l.Append(e)
					pending[z] = append(pending[z], e)
				}
				if step%100 == 99 {
					checkReadouts(t, &l)
				}
			}
			l.Reset()
			if got, next := l.EntriesSince(propZones[0], cursors[0]); len(got) != 0 || next != 0 {
				t.Errorf("after Reset: EntriesSince = %d entries, next %d", len(got), next)
			}
			checkReadouts(t, &l)
		})
	}
}
