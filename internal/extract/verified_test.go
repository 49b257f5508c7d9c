package extract

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
	"hoiho/internal/match"
)

// rawRecords compiles ncs into records in their order, duplicates kept:
// what a writer other than SaveBinary may encode.
func rawRecords(ncs []*core.NC) []corpusbin.NCRecord {
	recs := make([]corpusbin.NCRecord, len(ncs))
	for i, nc := range ncs {
		recs[i] = corpusbin.NCRecord{NC: nc, Programs: match.Compile(nc.Regexes).Wire()}
	}
	return recs
}

// TestFromVerifiedMatchesOracle: the corpora Load and ApplyDelta build
// from verified records — a loaded corpus, then two deltas applied in a
// chain, each to the previous apply's result — hold the same
// binaryRecords memo, fingerprint and saved bytes as a corpus New
// builds from the same NCs. On the sorted, unfiltered input an apply
// adopts the verified records; an unsorted input, a duplicate suffix
// and a class filter that drops records fall back to computing them.
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
		adopt bool
	}{
		{"sorted", slices.Clone[[]*core.NC], nil, true},
		{"unsorted", reversed, nil, false},
		{"duplicate suffix", duplicated, nil, false},
		{"filtered", slices.Clone[[]*core.NC], []Option{UsableOnly()}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := corpusbin.Encode(&buf, rawRecords(tc.order(versions[0]))); err != nil {
				t.Fatal(err)
			}
			c, err := Load(&buf, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Load adopts the verified fingerprint but never the records.
			checkVerified(t, "load", c, tc.order(versions[0]), tc.opts, false)
			for gen, ncs := range versions[1:] {
				target := rawRecords(tc.order(ncs))
				var delta, want bytes.Buffer
				if err := corpusbin.EncodeDelta(&delta, c.binaryRecords(), target); err != nil {
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
				checkVerified(t, fmt.Sprintf("apply %d", gen+1), next, tc.order(ncs), tc.opts, tc.adopt)
				c = next
			}
		})
	}
}

// checkVerified holds c, built from verified records of input under
// opts, to the oracle: its memo is the records its engines rebuild, its
// fingerprint is the hash of its retained NCs, and it saves the bytes a
// corpus New builds from input saves. adopt says whether c must have
// adopted the verified records: its memo set before anything asked.
func checkVerified(t *testing.T, step string, c *Corpus, input []*core.NC, opts []Option, adopt bool) {
	t.Helper()
	if got := c.binRecs != nil; got != adopt {
		t.Errorf("%s: adopted the verified records = %v, want %v", step, got, adopt)
	}
	want := New(input, opts...)
	rebuilt := make([]corpusbin.NCRecord, len(c.ncs))
	for i, nc := range c.ncs {
		rebuilt[i] = corpusbin.NCRecord{NC: nc, Programs: c.compiledEngine(nc).Wire()}
	}
	if !reflect.DeepEqual(c.binaryRecords(), rebuilt) {
		t.Errorf("%s: binaryRecords differ from the records its engines rebuild", step)
	}
	if got, fp := c.Fingerprint(), core.FingerprintNCs(c.ncs); got != fp || got != want.Fingerprint() {
		t.Errorf("%s: fingerprint %016x, retained NCs hash to %016x, New's corpus %016x", step, got, fp, want.Fingerprint())
	}
	if !bytes.Equal(hbcBytes(t, c), hbcBytes(t, want)) {
		t.Errorf("%s: SaveBinary differs from a corpus New builds", step)
	}
}
