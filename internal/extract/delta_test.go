package extract

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
)

// deltaBytes diffs two corpora into an in-memory HBD patch.
func deltaBytes(t testing.TB, old, new *Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Diff(old, new, &buf); err != nil {
		t.Fatalf("diff: %v", err)
	}
	return buf.Bytes()
}

// TestDiffApplyByteIdentity is the extract-layer half of the core
// contract: ApplyDelta(base, Diff(base, target)) must hand back the
// exact bytes SaveBinary writes for the target, and a corpus that
// answers extraction queries identically to one built from the target
// directly.
func TestDiffApplyByteIdentity(t *testing.T) {
	oldNCs := syntheticNCs(t, 48)
	newNCs := make([]*core.NC, 0, 48)
	for i, nc := range oldNCs {
		if i%9 == 4 {
			continue // removed
		}
		if i%5 == 2 { // replaced: same suffix, different eval
			cp := *nc
			cp.Eval.TP += 17
			nc = &cp
		}
		newNCs = append(newNCs, nc)
	}
	oldC, newC := New(oldNCs), New(newNCs)

	delta := deltaBytes(t, oldC, newC)
	if !corpusbin.IsHBD(delta) {
		t.Fatal("Diff output does not start with the HBD magic")
	}
	applied, full, err := ApplyDelta(oldC, delta)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if want := hbcBytes(t, newC); !bytes.Equal(full, want) {
		t.Fatalf("applied bytes differ from SaveBinary of the target: %d vs %d bytes", len(full), len(want))
	}
	if a, b := applied.FingerprintString(), newC.FingerprintString(); a != b {
		t.Fatalf("applied corpus fingerprint %s, target %s", a, b)
	}
	var roundTrip bytes.Buffer
	if err := applied.SaveBinary(&roundTrip); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(roundTrip.Bytes(), full) {
		t.Fatal("re-saving the applied corpus does not reproduce the applied bytes")
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		host := randomHost(rng, newNCs)
		ra, oka := applied.Extract(context.Background(), host)
		rn, okn := newC.Extract(context.Background(), host)
		if oka != okn || ra != rn {
			t.Fatalf("host %q: applied (%+v,%v) vs target (%+v,%v)", host, ra, oka, rn, okn)
		}
	}
}

// TestApplyDeltaStats: the stats count the target's records by where
// they came from, and time both steps.
func TestApplyDeltaStats(t *testing.T) {
	pool := syntheticNCs(t, 49)
	target := make([]*core.NC, 0, 47)
	for i, nc := range pool[:48] {
		switch {
		case i == 5 || i == 9: // removed
			continue
		case i%16 == 2: // replaced: same suffix, different eval
			cp := *nc
			cp.Eval.FN++
			nc = &cp
		}
		target = append(target, nc)
	}
	target = append(target, pool[48]) // added
	base := New(pool[:48])
	applied, _, st, err := ApplyDeltaStats(base, deltaBytes(t, base, New(target)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Copied != 43 || st.Inserted != 4 || applied.Len() != 47 {
		t.Errorf("copied %d, inserted %d of %d records; want 43 and 4 of 47", st.Copied, st.Inserted, applied.Len())
	}
	if st.Apply <= 0 || st.Index <= 0 {
		t.Errorf("apply %v, index %v: want both timed", st.Apply, st.Index)
	}
}

// TestApplyDeltaPSLFlags: an applied corpus selects the same suffix
// lookup (pslDirect, safeDirect) as a fresh Load of its target, while
// its copied records inherit the base's PSL answers. The chain starts
// on a corpus of registered domains and inserts a suffix that is not
// one ("net"), which turns pslDirect off; then it keeps or drops that
// suffix and one with a PSL rule beneath it ("amazonaws.com") across
// epochs, so a copied record's answer is only inherited from a base
// whose every suffix has it.
func TestApplyDeltaPSLFlags(t *testing.T) {
	all := syntheticNCs(t, 25)
	pool, extra := all[:24], all[24]
	net := ncFromJSON(t, "net", `^as(\\d+)-[^\\.]+\\.net$`, core.Good)
	aws := ncFromJSON(t, "amazonaws.com", `^as(\\d+)-[^\\.]+\\.amazonaws\\.com$`, core.Good)
	with := func(ncs ...*core.NC) []*core.NC { return append(slices.Clone(pool), ncs...) }
	steps := []struct {
		name         string
		ncs          []*core.NC
		direct, safe bool
	}{
		{"inserts net", with(net), false, false},
		{"keeps net, inserts amazonaws.com", with(net, aws), false, false},
		{"drops net", with(aws), true, false},
		{"keeps amazonaws.com, inserts a registered domain", with(aws, extra), true, false},
		{"drops amazonaws.com", with(extra), true, true},
	}
	c := New(pool)
	if !c.pslDirect || !c.safeDirect {
		t.Fatal("the starting corpus is not all registered domains")
	}
	rng := rand.New(rand.NewSource(9))
	for _, st := range steps {
		target := New(st.ncs)
		applied, full, err := ApplyDelta(c, deltaBytes(t, c, target))
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		fresh, err := Load(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		if applied.pslDirect != st.direct || applied.safeDirect != st.safe {
			t.Errorf("%s: pslDirect/safeDirect %v/%v, want %v/%v", st.name, applied.pslDirect, applied.safeDirect, st.direct, st.safe)
		}
		if applied.pslDirect != fresh.pslDirect || applied.safeDirect != fresh.safeDirect {
			t.Errorf("%s: pslDirect/safeDirect %v/%v, a fresh Load %v/%v", st.name, applied.pslDirect, applied.safeDirect, fresh.pslDirect, fresh.safeDirect)
		}
		hosts := []string{"as64500-pop1.net", "as64500-pop1.amazonaws.com", "as64500-pop1.s3.amazonaws.com", "AS64500-POP1.NET"}
		for i := 0; i < 500; i++ {
			hosts = append(hosts, randomHost(rng, st.ncs))
		}
		for _, h := range hosts {
			ra, oka := applied.Extract(context.Background(), h)
			rf, okf := fresh.Extract(context.Background(), h)
			if oka != okf || ra != rf {
				t.Fatalf("%s: host %q: applied (%+v,%v), fresh Load (%+v,%v)", st.name, h, ra, oka, rf, okf)
			}
		}
		c = applied
	}
}

// TestApplyDeltaBaseMismatch: a patch diffed from another corpus is
// refused with the typed sentinel, and the base keeps serving.
func TestApplyDeltaBaseMismatch(t *testing.T) {
	oldC := New(syntheticNCs(t, 16))
	newC := New(syntheticNCs(t, 24))
	other := New(syntheticNCs(t, 8))

	delta := deltaBytes(t, oldC, newC)
	_, _, err := ApplyDelta(other, delta)
	if !errors.Is(err, corpusbin.ErrDeltaBaseMismatch) {
		t.Fatalf("apply against wrong base = %v, want ErrDeltaBaseMismatch", err)
	}
	if _, ok := other.Extract(context.Background(), "pe1.core.as3356.example0001.net"); !ok {
		t.Fatal("base corpus stopped extracting after a refused apply")
	}
}

// TestApplyDeltaCorruptFailsClosed: a damaged patch is rejected without
// producing a corpus, whatever byte was hit.
func TestApplyDeltaCorruptFailsClosed(t *testing.T) {
	oldC := New(syntheticNCs(t, 16))
	newC := New(syntheticNCs(t, 20))
	delta := deltaBytes(t, oldC, newC)

	for _, n := range []int{0, 3, len(delta) / 2, len(delta) - 1} {
		if c, _, err := ApplyDelta(oldC, delta[:n]); err == nil || c != nil {
			t.Fatalf("truncation to %d bytes applied successfully", n)
		}
	}
	for _, i := range []int{5, 13, 21, 29, len(delta) / 2, len(delta) - 1} {
		mut := append([]byte(nil), delta...)
		mut[i] ^= 0x10
		if c, _, err := ApplyDelta(oldC, mut); err == nil || c != nil {
			t.Fatalf("flip at byte %d applied successfully", i)
		}
	}
}

// TestApplyDeltaHonorsOptions: the returned corpus is indexed under the
// caller's options (a filtered node keeps its filter), while the
// returned bytes always carry the complete target.
func TestApplyDeltaHonorsOptions(t *testing.T) {
	oldC := New(syntheticNCs(t, 33))
	newC := New(syntheticNCs(t, 44))
	delta := deltaBytes(t, oldC, newC)

	applied, full, err := ApplyDelta(oldC, delta, UsableOnly())
	if err != nil {
		t.Fatal(err)
	}
	filtered := New(syntheticNCs(t, 44), UsableOnly())
	if applied.Len() != filtered.Len() {
		t.Fatalf("filtered apply kept %d NCs, want %d", applied.Len(), filtered.Len())
	}
	if !bytes.Equal(full, hbcBytes(t, newC)) {
		t.Fatal("filtered apply did not return the complete target bytes")
	}
}

// FuzzExtractDeltaRoundTrip drives the diff→apply cycle over corpus
// pairs of fuzz-chosen sizes and overlap, requiring byte-identity with
// a direct SaveBinary of the target every time.
func FuzzExtractDeltaRoundTrip(f *testing.F) {
	f.Add(uint8(16), uint8(24), uint8(0x35))
	f.Add(uint8(1), uint8(1), uint8(0))
	f.Add(uint8(40), uint8(8), uint8(0xff))
	f.Fuzz(func(t *testing.T, nOld, nNew, drop uint8) {
		oldNCs := syntheticNCs(t, int(nOld%48)+1)
		newNCs := syntheticNCs(t, int(nNew%48)+1)
		kept := newNCs[:0]
		for i, nc := range newNCs {
			if drop > 0 && i%int(drop%7+2) == 0 {
				continue
			}
			kept = append(kept, nc)
		}
		if len(kept) == 0 {
			kept = newNCs[:1]
		}
		oldC, newC := New(oldNCs), New(kept)
		_, full, err := ApplyDelta(oldC, deltaBytes(t, oldC, newC))
		if err != nil {
			t.Fatalf("apply of freshly diffed delta failed: %v", err)
		}
		if !bytes.Equal(full, hbcBytes(t, newC)) {
			t.Fatal("diff→apply cycle not byte-identical with SaveBinary of the target")
		}
	})
}
