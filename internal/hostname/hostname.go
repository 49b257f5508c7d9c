// Package hostname parses router interface hostnames (DNS PTR records)
// into the punctuation-delimited structure that Hoiho's regex learner
// reasons about (paper §3.2), and detects numeric strings that are really
// fragments of an embedded IP address rather than ASNs (paper §3.1,
// figure 3b).
//
// A hostname such as "te0-0-24.01.p.bre.ch.as15576.nts.ch" is viewed as a
// sequence of parts ("te0", "0", "24", "01", ...) separated by
// punctuation ('.', '-', '_'). Operators place ASN annotations inside a
// single part, optionally surrounded by alphabetic context ("as15576"),
// which is why Hoiho builds candidate regexes part by part.
package hostname

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// Punctuation characters that delimit hostname parts. DNS labels only
// permit '-' internally and '.' between labels, but PTR records in the
// wild also contain '_', so it is treated as punctuation too.
const Punctuation = ".-_"

// IsPunct reports whether c is a hostname part delimiter.
func IsPunct(c byte) bool { return c == '.' || c == '-' || c == '_' }

// IsDigit reports whether c is an ASCII decimal digit.
func IsDigit(c byte) bool { return '0' <= c && c <= '9' }

// IsAlpha reports whether c is an ASCII lowercase letter. Hostnames are
// normalized to lowercase before parsing.
func IsAlpha(c byte) bool { return 'a' <= c && c <= 'z' }

// Part is one punctuation-delimited component of a hostname.
type Part struct {
	Text  string // the part's characters (no punctuation)
	Start int    // byte offset of the part in the normalized hostname
	Delim byte   // punctuation character after the part; 0 for the last part
}

// End returns the byte offset just past the part.
func (p Part) End() int { return p.Start + len(p.Text) }

// Name is a parsed hostname.
type Name struct {
	Full  string // normalized (lowercased, trailing dot removed) hostname
	Parts []Part
}

// Parse normalizes and splits a hostname. It lowercases the input,
// removes one trailing dot, and rejects hostnames containing characters
// outside [a-z0-9._-] or that are empty after normalization.
func Parse(s string) (Name, error) {
	full, parts, err := AppendParse(nil, s)
	if err != nil {
		return Name{}, err
	}
	return Name{Full: full, Parts: parts}, nil
}

// AppendParse is Parse with caller-provided Parts storage: the parsed
// parts are appended to dst and the extended slice is returned alongside
// the normalized hostname. Bulk callers (the learner's item arena) parse
// thousands of names into one backing slice instead of one heap slice
// per name; the caller slices the tail back out by offset.
func AppendParse(dst []Part, s string) (string, []Part, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return "", dst, fmt.Errorf("hostname: empty name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !IsAlpha(c) && !IsDigit(c) && !IsPunct(c) {
			return "", dst, fmt.Errorf("hostname: %q: invalid character %q at %d", s, c, i)
		}
	}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || IsPunct(s[i]) {
			var delim byte
			if i < len(s) {
				delim = s[i]
			}
			dst = append(dst, Part{Text: s[start:i], Start: start, Delim: delim})
			start = i + 1
		}
	}
	return s, dst, nil
}

// String returns the normalized hostname.
func (n Name) String() string { return n.Full }

// Run is a maximal run of decimal digits within a hostname.
type Run struct {
	Text  string // the digits
	Start int    // byte offset in the normalized hostname
	Part  int    // index into Name.Parts of the containing part
}

// End returns the byte offset just past the run.
func (r Run) End() int { return r.Start + len(r.Text) }

// DigitRuns returns every maximal digit run in the hostname, in order of
// appearance. Runs never span punctuation.
func (n Name) DigitRuns() []Run {
	return n.AppendDigitRuns(nil)
}

// AppendDigitRuns appends every maximal digit run to dst (see DigitRuns)
// and returns the extended slice, so bulk callers can pool the run
// storage for many names in one backing slice.
func (n Name) AppendDigitRuns(dst []Run) []Run {
	runs := dst
	for pi, p := range n.Parts {
		i := 0
		for i < len(p.Text) {
			if !IsDigit(p.Text[i]) {
				i++
				continue
			}
			j := i
			for j < len(p.Text) && IsDigit(p.Text[j]) {
				j++
			}
			runs = append(runs, Run{Text: p.Text[i:j], Start: p.Start + i, Part: pi})
			i = j
		}
	}
	return runs
}

// Span is a half-open byte range [Start, End) in a normalized hostname.
type Span struct{ Start, End int }

// Contains reports whether the span fully contains [start, end).
func (s Span) Contains(start, end int) bool { return start >= s.Start && end <= s.End }

// Overlaps reports whether the span intersects [start, end).
func (s Span) Overlaps(start, end int) bool { return start < s.End && end > s.Start }

// EmbeddedIPSpans returns spans of the hostname that encode the interface
// address addr, so that digit runs inside them can be disqualified as ASN
// candidates (figure 3b of the paper: "hostnames can embed an IP address,
// with portions the same as the training ASN, by coincidence").
//
// Recognized encodings, for IPv4 address a.b.c.d:
//
//   - four consecutive parts equal to the octets, in order (a-b-c-d,
//     a.b.c.d) or reversed (d.c.b.a, common in generated PTR names),
//     with or without zero padding ("050");
//   - the 32-bit address written as a single decimal or zero-padded
//     ("0x%08x"-style) hex part.
//
// If addr is the zero Addr, or not IPv4, no spans are returned.
func (n Name) EmbeddedIPSpans(addr netip.Addr) []Span {
	return n.AppendEmbeddedIPSpans(nil, addr)
}

// AppendEmbeddedIPSpans appends the embedded-IP spans to dst (see
// EmbeddedIPSpans) and returns the extended slice; the appended tail is
// sorted and coalesced in place, so dst's existing contents are
// untouched.
func (n Name) AppendEmbeddedIPSpans(dst []Span, addr netip.Addr) []Span {
	if !addr.Is4() {
		return dst
	}
	oct := addr.As4()
	off := len(dst)
	spans := dst
	// Forward and reversed octet sequences over consecutive parts.
	for _, order := range [][4]byte{
		{oct[0], oct[1], oct[2], oct[3]},
		{oct[3], oct[2], oct[1], oct[0]},
	} {
		for i := 0; i+4 <= len(n.Parts); i++ {
			if partsMatchOctets(n.Parts[i:i+4], order) {
				spans = append(spans, Span{n.Parts[i].Start, n.Parts[i+3].End()})
			}
		}
	}
	// Whole-address decimal or zero-padded hex in one part, rendered
	// into a stack buffer. v|1<<32 has nine hex digits; dropping its
	// leading "1" leaves v padded to eight.
	v := uint64(oct[0])<<24 | uint64(oct[1])<<16 | uint64(oct[2])<<8 | uint64(oct[3])
	var buf [19]byte
	dec := strconv.AppendUint(buf[:0:10], v, 10)
	hex := strconv.AppendUint(buf[10:10], v|1<<32, 16)[1:]
	for _, p := range n.Parts {
		if p.Text == string(dec) || p.Text == string(hex) {
			spans = append(spans, Span{p.Start, p.End()})
		}
	}
	merged := mergeSpans(spans[off:])
	return spans[:off+len(merged)]
}

// partsMatchOctets reports whether the four parts are exactly the decimal
// octets (allowing leading-zero padding to width 3).
func partsMatchOctets(parts []Part, oct [4]byte) bool {
	for i, p := range parts {
		if !octetMatch(p.Text, oct[i]) {
			return false
		}
	}
	return true
}

func octetMatch(text string, octet byte) bool {
	if text == "" || len(text) > 3 {
		return false
	}
	v := 0
	for i := 0; i < len(text); i++ {
		if !IsDigit(text[i]) {
			return false
		}
		v = v*10 + int(text[i]-'0')
	}
	return v == int(octet)
}

// mergeSpans sorts and coalesces overlapping spans.
func mergeSpans(spans []Span) []Span {
	if len(spans) <= 1 {
		return spans
	}
	// insertion sort: span lists are tiny
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start < spans[j-1].Start; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.Start <= last.End {
			if s.End > last.End {
				last.End = s.End
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// SuffixParts returns how many trailing parts of the hostname make up the
// registered domain suffix (e.g. 2 for "equinix.com", 3 for
// "antel.net.uy"), and whether the hostname actually ends with that
// suffix as whole parts. A hostname equal to its suffix yields
// len(n.Parts), true.
func (n Name) SuffixParts(suffix string) (int, bool) {
	if suffix == "" {
		return 0, false
	}
	if n.Full == suffix {
		return len(n.Parts), true
	}
	if !strings.HasSuffix(n.Full, "."+suffix) {
		return 0, false
	}
	cut := len(n.Full) - len(suffix)
	// cut must land exactly at the start of a part.
	count := 0
	for i := len(n.Parts) - 1; i >= 0; i-- {
		count++
		if n.Parts[i].Start == cut {
			return count, true
		}
		if n.Parts[i].Start < cut {
			return 0, false
		}
	}
	return 0, false
}
