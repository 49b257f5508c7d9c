package match

import (
	"strings"
	"testing"

	"hoiho/internal/rex"
)

// rewire round-trips an engine through its wire form.
func rewire(t *testing.T, regexes []*rex.Regex) (*Engine, *Engine) {
	t.Helper()
	fresh := Compile(regexes)
	loaded, err := EngineFromWire(fresh.Wire(), regexes)
	if err != nil {
		t.Fatalf("EngineFromWire: %v", err)
	}
	return fresh, loaded
}

// TestWireRoundTripParity proves an engine rebuilt from its wire form
// answers exactly like the original — and therefore like the stdlib
// oracle — on every parity host, per-regex and as one multi-program
// engine (which also exercises the rebuilt tail trie).
func TestWireRoundTripParity(t *testing.T) {
	regexes := tableRegexes(t)
	hosts := append([]string{}, parityHosts...)
	hosts = append(hosts, strings.Repeat("a9.", 40)+"net")

	check := func(label string, set []*rex.Regex) {
		fresh, loaded := rewire(t, set)
		if fresh.Len() != loaded.Len() {
			t.Fatalf("%s: loaded engine kept %d programs, fresh %d", label, loaded.Len(), fresh.Len())
		}
		ora := NewRegexpSet(set)
		for _, host := range hosts {
			fh, fok := fresh.MatchString(host)
			lh, lok := loaded.MatchString(host)
			if fok != lok || fh != lh {
				t.Errorf("%s host %q: loaded (%+v,%v) vs fresh (%+v,%v)", label, host, lh, lok, fh, fok)
			}
			oh, ook := ora.MatchString(host)
			if lok != ook || lh != oh {
				t.Errorf("%s host %q: loaded (%+v,%v) vs oracle (%+v,%v)", label, host, lh, lok, oh, ook)
			}
		}
	}
	for _, r := range regexes {
		check(r.String(), []*rex.Regex{r})
	}
	check("all-table-regexes", regexes)
}

func TestWireRejectsBadPrograms(t *testing.T) {
	regexes := tableRegexes(t)
	wire := Compile(regexes).Wire()

	t.Run("out-of-range-index", func(t *testing.T) {
		bad := append([]WireProgram{}, wire...)
		bad[0].Index = len(regexes)
		if _, err := EngineFromWire(bad, regexes); err == nil {
			t.Fatal("accepted out-of-range index")
		}
	})
	t.Run("out-of-order-index", func(t *testing.T) {
		bad := append([]WireProgram{}, wire...)
		bad[1].Index = bad[0].Index
		if _, err := EngineFromWire(bad, regexes); err == nil {
			t.Fatal("accepted duplicate index")
		}
	})
	t.Run("unknown-op-kind", func(t *testing.T) {
		bad := append([]WireProgram{}, wire...)
		ops := append([]WireOp{}, bad[0].Ops...)
		ops[0].Kind = 0xee
		bad[0].Ops = ops
		if _, err := EngineFromWire(bad, regexes); err == nil {
			t.Fatal("accepted unknown op kind")
		}
	})
	t.Run("nil-regex-for-oracle", func(t *testing.T) {
		// Force the non-det path by marking the program oracle, then hand
		// it a nil source.
		bad := append([]WireProgram{}, wire...)
		bad[0].Oracle = true
		nils := make([]*rex.Regex, len(regexes))
		if _, err := EngineFromWire(bad, nils); err == nil {
			t.Fatal("accepted nil source regex for oracle program")
		}
	})
	t.Run("nil-regex-for-det", func(t *testing.T) {
		nils := make([]*rex.Regex, len(regexes))
		if _, err := EngineFromWire(wire[:1], nils); err == nil {
			t.Fatal("accepted nil source regex for det program")
		}
	})
	t.Run("source-fails-gate", func(t *testing.T) {
		// A det program whose source renders invalid UTF-8: Compile would
		// have dropped it, so the wire must not bring it back.
		src := []*rex.Regex{rex.MustNew(rex.Lit("as\xff"), rex.Capture(), rex.Lit(".net"))}
		bad := Compile([]*rex.Regex{rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit(".net"))}).Wire()
		if _, err := EngineFromWire(bad, src); err == nil {
			t.Fatal("accepted a source regex the stdlib cannot parse")
		}
	})
}
