package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Name-related wire-format limits (RFC 1035 §2.3.4).
const (
	// MaxNameLen is the maximum length of a domain name in wire format,
	// including the terminating root label.
	MaxNameLen = 255
	// MaxLabelLen is the maximum length of a single label.
	MaxLabelLen = 63
	// maxCompressionPointers bounds pointer chains during decompression so
	// a malicious message cannot loop forever.
	maxCompressionPointers = 64
)

// Name handling errors.
var (
	ErrNameTooLong      = errors.New("dnswire: domain name exceeds 255 octets")
	ErrLabelTooLong     = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel       = errors.New("dnswire: empty label in domain name")
	ErrBadPointer       = errors.New("dnswire: invalid compression pointer")
	ErrPointerLoop      = errors.New("dnswire: compression pointer loop")
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
)

// CanonicalName lower-cases a domain name and ensures it is fully qualified
// (ends with a single trailing dot). The root name is returned as ".".
// Lowercasing is ASCII-only: DNS case-insensitivity covers only A–Z
// (RFC 4343), and Unicode-aware lowering would corrupt raw label octets
// that are not valid UTF-8.
func CanonicalName(name string) string {
	// Fast path: a name that already ends in "." and contains no uppercase
	// is returned unchanged (strip-one-dot + lower + re-append is the
	// identity on it). This keeps the wire hot path allocation-free, since
	// names coming off the wire or out of NewQuery are already canonical.
	if len(name) > 0 && name[len(name)-1] == '.' && !hasUpper(name) {
		return name
	}
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return "."
	}
	//cdelint:allow hotalloc non-canonical input only; wire and NewQuery names return early above
	return asciiLowerString(name) + "."
}

// hasUpper reports whether s contains an ASCII uppercase letter.
func hasUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			return true
		}
	}
	return false
}

// asciiLowerString lowercases ASCII A–Z in s, allocating only when needed.
func asciiLowerString(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			return string(bytesToLower([]byte(s)))
		}
	}
	return s
}

// SplitLabels splits a canonical name into its labels, excluding the root.
// SplitLabels("a.b.example.") returns ["a", "b", "example"].
func SplitLabels(name string) []string {
	name = strings.TrimSuffix(CanonicalName(name), ".")
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// CountLabels returns the number of labels in name, excluding the root.
func CountLabels(name string) int {
	return len(SplitLabels(name))
}

// IsSubdomain reports whether child is equal to or a subdomain of parent.
// Both arguments are canonicalised before comparison.
func IsSubdomain(child, parent string) bool {
	c, p := CanonicalName(child), CanonicalName(parent)
	if p == "." {
		return true
	}
	return c == p || strings.HasSuffix(c, "."+p)
}

// ValidateName checks that name satisfies the RFC 1035 length limits.
// It allocates only on the error path.
func ValidateName(name string) error {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil
	}
	// Wire length: one length octet per label plus the label bytes plus the
	// terminating root label.
	wire := 1
	start := 0
	for i := 0; i <= len(name); i++ {
		if i < len(name) && name[i] != '.' {
			continue
		}
		n := i - start
		if n == 0 {
			return ErrEmptyLabel
		}
		if n > MaxLabelLen {
			return fmt.Errorf("%w: %q", ErrLabelTooLong, name[start:i])
		}
		wire += 1 + n
		start = i + 1
	}
	if wire > MaxNameLen {
		return fmt.Errorf("%w: %q", ErrNameTooLong, CanonicalName(name))
	}
	return nil
}

// compressionMap tracks offsets of names already written to a message so
// later occurrences can be encoded as compression pointers (RFC 1035 §4.1.4).
type compressionMap map[string]int

// packName appends the wire encoding of name to buf, using and updating cmp
// for compression when cmp is non-nil. Offsets beyond 0x3FFF cannot be
// pointed at and are simply not recorded.
//
// Compression keys are the dotted suffixes of the canonical name
// (name[off:] including the trailing dot) — the same strings the old
// strings.Join construction produced, but as substrings of name, so the
// loop allocates nothing on an already-canonical input.
func packName(buf []byte, name string, cmp compressionMap) ([]byte, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	name = CanonicalName(name)
	if name == "." {
		return append(buf, 0), nil
	}
	for off := 0; off < len(name); {
		suffix := name[off:]
		if cmp != nil {
			if at, ok := cmp[suffix]; ok {
				ptr := uint16(0xC000) | uint16(at)
				return append(buf, byte(ptr>>8), byte(ptr)), nil
			}
			if len(buf) <= 0x3FFF {
				cmp[suffix] = len(buf)
			}
		}
		// ValidateName guarantees a dot terminates every label.
		n := strings.IndexByte(suffix, '.')
		buf = append(buf, byte(n))
		buf = append(buf, name[off:off+n]...)
		off += n + 1
	}
	return append(buf, 0), nil
}

// unpackName decodes a possibly-compressed name starting at off in msg.
// It returns the canonical name and the offset of the first byte after the
// name's in-place encoding.
func unpackName(msg []byte, off int) (string, int, error) {
	// nb is a stack scratch for the decoded presentation form: one past
	// MaxNameLen so a name that is exactly one octet too long is rejected
	// by the final length check (same error the old builder path produced)
	// rather than mid-build.
	var nb [MaxNameLen + 1]byte
	n := 0
	ptrCount := 0
	// next is the offset to resume at after the first pointer jump; -1
	// means no pointer has been followed yet.
	next := -1
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		b := int(msg[off])
		switch {
		case b == 0:
			off++
			if next == -1 {
				next = off
			}
			if n == 0 {
				return ".", next, nil
			}
			if n > MaxNameLen {
				return "", 0, ErrNameTooLong
			}
			return string(nb[:n]), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			ptrCount++
			if ptrCount > maxCompressionPointers {
				return "", 0, ErrPointerLoop
			}
			target := (b&0x3F)<<8 | int(msg[off+1])
			if next == -1 {
				next = off + 2
			}
			// Pointers must point strictly backwards to already-seen
			// data; forward pointers are malformed.
			if target >= off {
				return "", 0, ErrBadPointer
			}
			off = target
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", b&0xC0)
		default:
			if off+1+b > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			if n+b+1 > len(nb) {
				return "", 0, ErrNameTooLong
			}
			for _, c := range msg[off+1 : off+1+b] {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				nb[n] = c
				n++
			}
			nb[n] = '.'
			n++
			off += 1 + b
		}
	}
}

// bytesToLower returns an ASCII-lowercased copy of b.
func bytesToLower(b []byte) []byte {
	//cdelint:allow hotalloc reached only for names containing uppercase; canonical wire names do not
	out := make([]byte, len(b))
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}
