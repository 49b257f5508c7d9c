package extract

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
)

// TestFromVerifiedMatchesOracle: the corpora Load and ApplyDelta build
// from verified records — a loaded corpus, then two deltas applied in a
// chain, each to the previous apply's result — hold the same
// fingerprint, PSL lookup mode and saved bytes as a corpus New builds
// from the same NCs, and extract the same answers. The records are
// encoded in the given order, duplicates kept, as a writer other than
// SaveBinary may: on the sorted, unfiltered input a corpus adopts the
// verified fingerprint; an unsorted input, a duplicate suffix and a
// class filter that drops records fall back to computing it.
func TestFromVerifiedMatchesOracle(t *testing.T) {
	pool := syntheticNCs(t, 56)
	changed := *pool[10]
	changed.Eval.TP += 3
	versions := [][]*core.NC{
		pool[:48],
		append(append(slices.Clone(pool[4:10]), &changed), pool[11:52]...),
		pool[8:56],
	}
	reversed := func(ncs []*core.NC) []*core.NC {
		out := slices.Clone(ncs)
		slices.Reverse(out)
		return out
	}
	duplicated := func(ncs []*core.NC) []*core.NC {
		dup := *ncs[3]
		dup.Class = core.Promising
		dup.Eval.FP++
		return append(slices.Clone(ncs), &dup) // the last NC for a suffix wins
	}
	cases := []struct {
		name  string
		order func([]*core.NC) []*core.NC
		opts  []Option
	}{
		{"sorted", slices.Clone[[]*core.NC], nil},
		{"unsorted", reversed, nil},
		{"duplicate suffix", duplicated, nil},
		{"filtered", slices.Clone[[]*core.NC], []Option{UsableOnly()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := corpusbin.Encode(&buf, tc.order(versions[0])); err != nil {
				t.Fatal(err)
			}
			c, err := Load(&buf, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			checkVerified(t, "load", c, tc.order(versions[0]), tc.opts)
			for gen, ncs := range versions[1:] {
				target := tc.order(ncs)
				var delta, want bytes.Buffer
				if err := corpusbin.EncodeDelta(&delta, c.ncs, target); err != nil {
					t.Fatal(err)
				}
				if err := corpusbin.Encode(&want, target); err != nil {
					t.Fatal(err)
				}
				next, full, err := ApplyDelta(c, delta.Bytes(), tc.opts...)
				if err != nil {
					t.Fatalf("apply %d: %v", gen+1, err)
				}
				if !bytes.Equal(full, want.Bytes()) {
					t.Errorf("apply %d: target bytes differ from a full encode of the target", gen+1)
				}
				checkVerified(t, fmt.Sprintf("apply %d", gen+1), next, tc.order(ncs), tc.opts)
				c = next
			}
		})
	}
}

// checkVerified holds c, built from verified records of input under
// opts, to the oracle: its fingerprint is the hash of its retained NCs,
// it selects the same PSL lookup as, saves the bytes of, and extracts
// like a corpus New builds from input.
func checkVerified(t *testing.T, step string, c *Corpus, input []*core.NC, opts []Option) {
	t.Helper()
	want := New(input, opts...)
	if got, fp := c.Fingerprint(), core.FingerprintNCs(c.ncs); got != fp || got != want.Fingerprint() {
		t.Errorf("%s: fingerprint %016x, retained NCs hash to %016x, New's corpus %016x", step, got, fp, want.Fingerprint())
	}
	if c.pslDirect != want.pslDirect || c.safeDirect != want.safeDirect {
		t.Errorf("%s: pslDirect/safeDirect %v/%v, New's corpus %v/%v", step, c.pslDirect, c.safeDirect, want.pslDirect, want.safeDirect)
	}
	if !bytes.Equal(hbcBytes(t, c), hbcBytes(t, want)) {
		t.Errorf("%s: SaveBinary differs from a corpus New builds", step)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		host := randomHost(rng, input)
		rc, okc := c.Extract(context.Background(), host)
		rw, okw := want.Extract(context.Background(), host)
		if okc != okw || rc != rw {
			t.Fatalf("%s: host %q: (%+v,%v), New's corpus (%+v,%v)", step, host, rc, okc, rw, okw)
		}
	}
}
