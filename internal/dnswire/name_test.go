package dnswire

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"", "."},
		{".", "."},
		{"example", "example."},
		{"Example.COM", "example.com."},
		{"cache.example.", "cache.example."},
		{"x-1.sub.cache.example", "x-1.sub.cache.example."},
	}
	for _, tt := range tests {
		if got := CanonicalName(tt.in); got != tt.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestSplitLabels(t *testing.T) {
	if got := SplitLabels("."); got != nil {
		t.Errorf("SplitLabels(.) = %v, want nil", got)
	}
	got := SplitLabels("a.b.example.")
	want := []string{"a", "b", "example"}
	if len(got) != len(want) {
		t.Fatalf("SplitLabels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	tests := []struct {
		child, parent string
		want          bool
	}{
		{"sub.cache.example", "cache.example", true},
		{"cache.example", "cache.example", true},
		{"cache.example", "sub.cache.example", false},
		{"notcache.example", "cache.example", false},
		{"anything.example", ".", true},
		{"x-1.sub.cache.example", "cache.example", true},
	}
	for _, tt := range tests {
		if got := IsSubdomain(tt.child, tt.parent); got != tt.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", tt.child, tt.parent, got, tt.want)
		}
	}
}

func TestValidateName(t *testing.T) {
	if err := ValidateName("cache.example"); err != nil {
		t.Errorf("ValidateName(cache.example) = %v, want nil", err)
	}
	if err := ValidateName("."); err != nil {
		t.Errorf("ValidateName(.) = %v, want nil", err)
	}
	long := strings.Repeat("a", 64)
	if err := ValidateName(long + ".example"); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("64-byte label: err = %v, want ErrLabelTooLong", err)
	}
	var parts []string
	for i := 0; i < 50; i++ {
		parts = append(parts, strings.Repeat("b", 10))
	}
	if err := ValidateName(strings.Join(parts, ".")); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("550-byte name: err = %v, want ErrNameTooLong", err)
	}
	if err := ValidateName("a..b.example"); !errors.Is(err, ErrEmptyLabel) {
		t.Errorf("empty label: err = %v, want ErrEmptyLabel", err)
	}
}

func TestPackUnpackNameRoundTrip(t *testing.T) {
	names := []string{
		".",
		"example.",
		"cache.example.",
		"x-1.sub.cache.example.",
		strings.Repeat("a", 63) + ".example.",
	}
	for _, name := range names {
		buf, err := packName(nil, name, nil)
		if err != nil {
			t.Fatalf("packName(%q): %v", name, err)
		}
		got, off, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", name, err)
		}
		if got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
		if off != len(buf) {
			t.Errorf("offset after %q = %d, want %d", name, off, len(buf))
		}
	}
}

func TestNameCompression(t *testing.T) {
	cmp := make(compressionMap)
	buf, err := packName(nil, "name.cache.example.", cmp)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	buf, err = packName(buf, "x-1.cache.example.", cmp)
	if err != nil {
		t.Fatal(err)
	}
	// The second name should reuse "cache.example." via a pointer:
	// 1+3 ("x-1") + 2 (pointer) = 6 bytes.
	if grew := len(buf) - first; grew != 6 {
		t.Errorf("compressed name used %d bytes, want 6", grew)
	}
	got, _, err := unpackName(buf, first)
	if err != nil {
		t.Fatal(err)
	}
	if got != "x-1.cache.example." {
		t.Errorf("decompressed = %q", got)
	}
}

func TestUnpackNameLowercases(t *testing.T) {
	buf, err := packName(nil, "CaChE.Example.", nil)
	if err != nil {
		t.Fatal(err)
	}
	// packName canonicalises, so craft mixed case manually.
	raw := []byte{5, 'C', 'a', 'C', 'h', 'E', 7, 'E', 'x', 'a', 'm', 'p', 'l', 'e', 0}
	got, _, err := unpackName(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != "cache.example." {
		t.Errorf("unpackName = %q, want lowercase", got)
	}
	_ = buf
}

func TestUnpackNamePointerLoop(t *testing.T) {
	// A name that points at itself must fail, not hang. Offset 2 holds a
	// pointer back to offset 0, and offset 0 holds a label so the pointer
	// target is valid but re-reaches the pointer.
	raw := []byte{1, 'a', 0xC0, 0x00}
	if _, _, err := unpackName(raw, 2); err == nil {
		t.Fatal("self-referential pointer chain: want error, got nil")
	}
}

func TestUnpackNameForwardPointer(t *testing.T) {
	raw := []byte{0xC0, 0x02, 1, 'a', 0}
	if _, _, err := unpackName(raw, 0); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("forward pointer: err = %v, want ErrBadPointer", err)
	}
}

func TestUnpackNameTruncated(t *testing.T) {
	cases := [][]byte{
		{},
		{5, 'a', 'b'},
		{0xC0},
	}
	for _, raw := range cases {
		if _, _, err := unpackName(raw, 0); !errors.Is(err, ErrTruncatedMessage) {
			t.Errorf("unpackName(%v): err = %v, want ErrTruncatedMessage", raw, err)
		}
	}
}

// randomName generates a valid random DNS name for property tests.
func randomName(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	nLabels := 1 + r.Intn(4)
	labels := make([]string, nLabels)
	for i := range labels {
		n := 1 + r.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet)-1)] // avoid trailing '-' edge: fine for wire format
		}
		labels[i] = string(b)
	}
	return strings.Join(labels, ".") + "."
}

func TestPropertyNameRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		name := randomName(r)
		buf, err := packName(nil, name, nil)
		if err != nil {
			return false
		}
		got, _, err := unpackName(buf, 0)
		return err == nil && got == name
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertySubdomainOfParent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		name := randomName(r)
		parent := "."
		if labels := SplitLabels(name); len(labels) > 1 {
			parent = strings.Join(labels[1:], ".") + "."
		}
		return IsSubdomain(name, parent)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
