package hostname

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

// MustParse is Parse for known-good literal inputs; it panics on error.
// It lives in the test files so the library itself stays panic-free.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

func TestParseParts(t *testing.T) {
	n := MustParse("te0-0-24.01.p.bre.ch.as15576.nts.ch")
	want := []string{"te0", "0", "24", "01", "p", "bre", "ch", "as15576", "nts", "ch"}
	if len(n.Parts) != len(want) {
		t.Fatalf("parts = %d, want %d: %+v", len(n.Parts), len(want), n.Parts)
	}
	for i, w := range want {
		if n.Parts[i].Text != w {
			t.Errorf("part %d = %q, want %q", i, n.Parts[i].Text, w)
		}
	}
	// Offsets reconstruct the original string.
	for _, p := range n.Parts {
		if n.Full[p.Start:p.End()] != p.Text {
			t.Errorf("offset mismatch for %q", p.Text)
		}
	}
	// Delimiters: last part has none.
	if n.Parts[len(n.Parts)-1].Delim != 0 {
		t.Error("last part should have no delimiter")
	}
	if n.Parts[0].Delim != '-' {
		t.Errorf("first delim = %q, want '-'", n.Parts[0].Delim)
	}
}

func TestParseNormalization(t *testing.T) {
	n, err := Parse("  P714.SGW.Equinix.COM.  ")
	if err != nil {
		t.Fatal(err)
	}
	if n.Full != "p714.sgw.equinix.com" {
		t.Errorf("Full = %q", n.Full)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", ".", "host name", "a/b.com", "ab\x00.com", "日本.com"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseEmptyParts(t *testing.T) {
	// Consecutive punctuation yields empty parts; the parser keeps them so
	// offsets stay faithful to the raw string.
	n := MustParse("a--b.com")
	want := []string{"a", "", "b", "com"}
	if len(n.Parts) != len(want) {
		t.Fatalf("parts = %+v", n.Parts)
	}
	for i, w := range want {
		if n.Parts[i].Text != w {
			t.Errorf("part %d = %q, want %q", i, n.Parts[i].Text, w)
		}
	}
}

func TestDigitRuns(t *testing.T) {
	n := MustParse("mlg4bras1-be127-605.antel.net.uy")
	runs := n.DigitRuns()
	want := []string{"4", "1", "127", "605"}
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v", runs)
	}
	for i, w := range want {
		if runs[i].Text != w {
			t.Errorf("run %d = %q, want %q", i, runs[i].Text, w)
		}
		r := runs[i]
		if n.Full[r.Start:r.End()] != r.Text {
			t.Errorf("run %d offsets wrong", i)
		}
		if !strings.Contains(n.Parts[r.Part].Text, r.Text) {
			t.Errorf("run %d part index wrong", i)
		}
	}
}

func TestDigitRunsNoneAndAll(t *testing.T) {
	if runs := MustParse("alpha.beta.net").DigitRuns(); len(runs) != 0 {
		t.Errorf("expected no runs, got %+v", runs)
	}
	runs := MustParse("123.net").DigitRuns()
	if len(runs) != 1 || runs[0].Text != "123" || runs[0].Start != 0 {
		t.Errorf("runs = %+v", runs)
	}
}

func TestEmbeddedIPSpansDashed(t *testing.T) {
	n := MustParse("50-236-216-122-static.hfc.comcastbusiness.net")
	addr := netip.MustParseAddr("50.236.216.122")
	spans := n.EmbeddedIPSpans(addr)
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	if n.Full[spans[0].Start:spans[0].End] != "50-236-216-122" {
		t.Errorf("span covers %q", n.Full[spans[0].Start:spans[0].End])
	}
	// The digit run "122" must fall inside the span.
	for _, r := range n.DigitRuns() {
		if r.Text == "122" && r.Part == 3 {
			if !spans[0].Contains(r.Start, r.End()) {
				t.Error("octet 122 not inside IP span")
			}
		}
	}
}

func TestEmbeddedIPSpansMixedDelims(t *testing.T) {
	n := MustParse("209-201-58-109.dia.stat.centurylink.net")
	spans := n.EmbeddedIPSpans(netip.MustParseAddr("209.201.58.109"))
	if len(spans) != 1 || n.Full[spans[0].Start:spans[0].End] != "209-201-58-109" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestEmbeddedIPSpansReversed(t *testing.T) {
	// Reverse-octet PTR style.
	n := MustParse("109.58.201.209.rev.example.net")
	spans := n.EmbeddedIPSpans(netip.MustParseAddr("209.201.58.109"))
	if len(spans) != 1 || n.Full[spans[0].Start:spans[0].End] != "109.58.201.209" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestEmbeddedIPSpansZeroPadded(t *testing.T) {
	n := MustParse("050-004-216-122.example.net")
	spans := n.EmbeddedIPSpans(netip.MustParseAddr("50.4.216.122"))
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestEmbeddedIPSpansDecimalAndHex(t *testing.T) {
	addr := netip.MustParseAddr("10.0.0.1")
	// 10.0.0.1 = 167772161 = 0x0a000001
	n := MustParse("h167772161.example.net")
	// decimal must be the entire part to match
	if spans := n.EmbeddedIPSpans(addr); len(spans) != 0 {
		t.Fatalf("partial part should not match: %+v", spans)
	}
	n = MustParse("167772161.example.net")
	if spans := n.EmbeddedIPSpans(addr); len(spans) != 1 {
		t.Fatalf("decimal spans = %+v", spans)
	}
	n = MustParse("0a000001.example.net")
	if spans := n.EmbeddedIPSpans(addr); len(spans) != 1 {
		t.Fatalf("hex spans = %+v", spans)
	}
}

// Property: a part holding the whole address in decimal or "%08x" hex
// is one embedded-IP span, and finding it allocates nothing.
func TestEmbeddedIPSpansWholeAddress(t *testing.T) {
	f := func(a [4]byte) bool {
		addr := netip.AddrFrom4(a)
		v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
		for _, part := range []string{fmt.Sprintf("%d", v), fmt.Sprintf("%08x", v)} {
			n := MustParse("r1." + part + ".example.net")
			spans := n.EmbeddedIPSpans(addr)
			if len(spans) != 1 || n.Full[spans[0].Start:spans[0].End] != part {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	n := MustParse("r1.167772161.example.net")
	dst := make([]Span, 0, 4)
	addr := netip.MustParseAddr("10.0.0.1")
	if allocs := testing.AllocsPerRun(100, func() { n.AppendEmbeddedIPSpans(dst, addr) }); allocs != 0 {
		t.Errorf("AppendEmbeddedIPSpans = %v allocs/op, want 0", allocs)
	}
}

func TestEmbeddedIPSpansNoFalsePositive(t *testing.T) {
	n := MustParse("gw-as20732.init7.net")
	if spans := n.EmbeddedIPSpans(netip.MustParseAddr("192.0.2.1")); len(spans) != 0 {
		t.Errorf("spans = %+v", spans)
	}
	if spans := n.EmbeddedIPSpans(netip.Addr{}); spans != nil {
		t.Errorf("zero addr should yield nil, got %+v", spans)
	}
	if spans := n.EmbeddedIPSpans(netip.MustParseAddr("2001:db8::1")); spans != nil {
		t.Errorf("v6 addr should yield nil, got %+v", spans)
	}
}

func TestSpanOps(t *testing.T) {
	s := Span{5, 10}
	if !s.Contains(5, 10) || !s.Contains(6, 9) || s.Contains(4, 6) || s.Contains(9, 11) {
		t.Error("Contains wrong")
	}
	if !s.Overlaps(9, 11) || !s.Overlaps(0, 6) || s.Overlaps(0, 5) || s.Overlaps(10, 12) {
		t.Error("Overlaps wrong")
	}
}

func TestSuffixParts(t *testing.T) {
	n := MustParse("p714.sgw.equinix.com")
	if c, ok := n.SuffixParts("equinix.com"); !ok || c != 2 {
		t.Errorf("got %d,%v", c, ok)
	}
	n = MustParse("mlg4bras1-be127-605.antel.net.uy")
	if c, ok := n.SuffixParts("antel.net.uy"); !ok || c != 3 {
		t.Errorf("got %d,%v", c, ok)
	}
	// suffix boundary must fall on a part boundary: "x.com" inside "equinix.com" does not count
	n = MustParse("p714.sgw.equinix.com")
	if _, ok := n.SuffixParts("x.com"); ok {
		t.Error("non-part-aligned suffix should not match")
	}
	if _, ok := n.SuffixParts("other.com"); ok {
		t.Error("wrong suffix should not match")
	}
	if c, ok := MustParse("equinix.com").SuffixParts("equinix.com"); !ok || c != 2 {
		t.Errorf("self suffix: got %d,%v", c, ok)
	}
	if _, ok := n.SuffixParts(""); ok {
		t.Error("empty suffix should not match")
	}
}

// Property: parsing then rejoining parts with their delimiters
// reconstructs the normalized hostname, and every digit run lies within
// its claimed part.
func TestParseRoundTripQuick(t *testing.T) {
	f := func(raw []byte) bool {
		// Map arbitrary bytes into the hostname alphabet.
		const alphabet = "abc019.-_"
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		b := make([]byte, len(raw))
		for i, c := range raw {
			b[i] = alphabet[int(c)%len(alphabet)]
		}
		s := strings.TrimSuffix(string(b), ".")
		if s == "" {
			return true
		}
		n, err := Parse(s)
		if err != nil {
			return true
		}
		var sb strings.Builder
		for _, p := range n.Parts {
			sb.WriteString(p.Text)
			if p.Delim != 0 {
				sb.WriteByte(p.Delim)
			}
		}
		if sb.String() != n.Full {
			return false
		}
		for _, r := range n.DigitRuns() {
			p := n.Parts[r.Part]
			if r.Start < p.Start || r.End() > p.End() {
				return false
			}
			for i := r.Start; i < r.End(); i++ {
				if !IsDigit(n.Full[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("te0-0-24.01.p.bre.ch.as15576.nts.ch"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbeddedIPSpans(b *testing.B) {
	n := MustParse("50-236-216-122-static.hfc.comcastbusiness.net")
	addr := netip.MustParseAddr("50.236.216.122")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.EmbeddedIPSpans(addr)
	}
}
