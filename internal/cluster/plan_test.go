package cluster

// Epoch planning on records: byte identity against the planner this
// package used before (kept below as the test oracle), the committed
// base cache's staleness guard, and the planning speed bound.

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
	"hoiho/internal/experiments"
	"hoiho/internal/extract"
	"hoiho/internal/match"
	"hoiho/internal/rex"
)

// oraclePlan plans a target the way the coordinator did on indexed
// corpora: Load the committed base, Load the target (or ApplyDelta a
// posted patch), SaveBinary it, and Diff it against the base when the
// fingerprints differ. It returns the full bytes, the delta and the
// target fingerprint planEpoch ships and journals.
func oraclePlan(t testing.TB, committed, data []byte) (full, delta []byte, fp string) {
	t.Helper()
	var base *extract.Corpus
	if committed != nil {
		var err error
		if base, err = extract.Load(bytes.NewReader(committed)); err != nil {
			t.Fatalf("oracle: load base: %v", err)
		}
	}
	if corpusbin.IsHBD(data) {
		target, full, err := extract.ApplyDelta(base, data)
		if err != nil {
			t.Fatalf("oracle: apply delta: %v", err)
		}
		return full, data, target.FingerprintString()
	}
	target, err := extract.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("oracle: load target: %v", err)
	}
	var buf bytes.Buffer
	if err := target.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if base != nil && base.FingerprintString() != target.FingerprintString() {
		var db bytes.Buffer
		if err := extract.Diff(base, target, &db); err != nil {
			t.Fatal(err)
		}
		delta = db.Bytes()
	}
	return buf.Bytes(), delta, target.FingerprintString()
}

// planCorpora returns n workload conventions and a target in which
// `changed` of them carry a different regex, as relearning one corpus
// changes a few conventions of many.
func planCorpora(n, changed int) (base, target []*core.NC) {
	base, _ = experiments.CorpusWorkload(n, 0)
	target = slices.Clone(base)
	for i := 0; i < changed; i++ {
		j := i * (n / changed)
		nc := *target[j]
		nc.Regexes = []*rex.Regex{rex.MustNew(rex.Lit("xs"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit("."+nc.Suffix))}
		target[j] = &nc
	}
	return base, target
}

// hbcOf is the canonical HBC a learner's save writes.
func hbcOf(t testing.TB, ncs []*core.NC) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := extract.New(ncs).SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireRecords compiles ncs into records, in their order, duplicates
// kept.
func wireRecords(ncs []*core.NC) []corpusbin.NCRecord {
	recs := make([]corpusbin.NCRecord, len(ncs))
	for i, nc := range ncs {
		recs[i] = corpusbin.NCRecord{NC: nc, Programs: match.Compile(nc.Regexes).Wire()}
	}
	return recs
}

// encodeRecords encodes recs as given: the kind of HBC only a foreign
// writer produces when recs are not canonical.
func encodeRecords(t testing.TB, recs []corpusbin.NCRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := corpusbin.Encode(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func rawHBC(t testing.TB, ncs []*core.NC) []byte {
	t.Helper()
	return encodeRecords(t, wireRecords(ncs))
}

// TestPlanTargetMatchesOracle: for every kind of target the coordinator
// accepts, planning on records ships byte-identical full and delta
// bytes and journals the same fingerprint as the indexed-corpus oracle,
// whether the base comes decoded from committed.corpus or from the
// previous epoch's encoder pass.
func TestPlanTargetMatchesOracle(t *testing.T) {
	baseNCs, targetNCs := planCorpora(256, 8)
	committed := hbcOf(t, baseNCs)

	reversed := slices.Clone(targetNCs)
	slices.Reverse(reversed)
	reversedBase := slices.Clone(baseNCs)
	slices.Reverse(reversedBase)
	// Duplicate suffixes: the last record for a suffix wins, whatever
	// precedes it.
	dup := *targetNCs[5]
	dup.Class = core.Poor
	dups := append([]*core.NC{targetNCs[3], &dup}, targetNCs...)
	dups = append(dups, &dup)
	// An alternation op with no alternatives, which no compiler emits
	// and the engine reads as "(?:)".
	emptyAlt := wireRecords(targetNCs)
	emptyAlt[0].Programs[0].Ops = append(emptyAlt[0].Programs[0].Ops, match.WireOp{Kind: 3, Opt: true})
	var jsonBuf bytes.Buffer
	if err := extract.New(targetNCs).Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	baseC, _ := extract.Load(bytes.NewReader(committed))
	var patch bytes.Buffer
	if err := extract.Diff(baseC, extract.New(targetNCs), &patch); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name            string
		committed, data []byte
	}{
		{"canonical HBC", committed, hbcOf(t, targetNCs)},
		{"unsorted HBC", committed, rawHBC(t, reversed)},
		{"duplicate suffixes", committed, rawHBC(t, dups)},
		{"empty alternation", committed, encodeRecords(t, emptyAlt)},
		{"JSON", committed, jsonBuf.Bytes()},
		{"posted HBD", committed, patch.Bytes()},
		{"first epoch", nil, hbcOf(t, targetNCs)},
		{"unchanged target", committed, hbcOf(t, baseNCs)},
		{"unsorted committed", rawHBC(t, reversedBase), hbcOf(t, targetNCs)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, delta, fp := oraclePlan(t, tc.committed, tc.data)
			check := func(how string, base *committedBase) {
				t.Helper()
				p, err := planTarget(base, tc.data)
				if err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				if !bytes.Equal(p.full, full) {
					t.Errorf("%s: full bytes differ from the oracle's (%d vs %d bytes)", how, len(p.full), len(full))
				}
				if !bytes.Equal(p.delta, delta) {
					t.Errorf("%s: delta differs from the oracle's (%d vs %d bytes)", how, len(p.delta), len(delta))
				}
				if got := extract.FormatFingerprint(p.fp); got != fp {
					t.Errorf("%s: target fingerprint %s, oracle %s", how, got, fp)
				}
			}
			if tc.committed == nil {
				check("no base", nil)
				return
			}
			decoded, err := loadBase(tc.committed)
			if err != nil {
				t.Fatal(err)
			}
			check("decoded base", decoded)
			// The base an epoch that committed these bytes leaves behind.
			prior, err := planTarget(nil, tc.committed)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(prior.full, tc.committed) {
				check("cached base", prior.next)
			}
		})
	}
}

// TestPlanTargetFailsClosed: a target that does not decode, or decodes
// to nothing, is refused by the planner itself, before planEpoch writes
// the epoch corpus or any journal record.
func TestPlanTargetFailsClosed(t *testing.T) {
	ncs, _ := experiments.CorpusWorkload(8, 0)
	good := hbcOf(t, ncs)
	flipped := slices.Clone(good)
	flipped[len(flipped)-3] ^= 1
	for name, data := range map[string][]byte{
		"bit-flipped HBC": flipped,
		"truncated HBC":   good[:len(good)/2],
		"empty HBC":       rawHBC(t, nil),
		"not a corpus":    []byte("{definitely not a corpus"),
		"HBD, no base":    []byte("HBD\x01"),
	} {
		if _, err := planTarget(nil, data); err == nil {
			t.Errorf("%s: planned", name)
		}
	}
}

// TestPlanCacheFollowsCommittedFile: the cached base is only trusted
// while its bytes are committed.corpus's. A different valid corpus
// written over the file between two epochs is what the next delta
// chains from.
func TestPlanCacheFollowsCommittedFile(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt, _ := newJournaledRouter(t, nodes, t.TempDir(), nil)
	ctx := context.Background()
	if _, err := rt.Rollout(ctx, []byte(corpusJSON("second")), 0); err != nil {
		t.Fatal(err)
	}
	if rt.base == nil {
		t.Fatal("commit left no cached base")
	}
	third, _ := extract.Load(strings.NewReader(corpusJSON("third")))
	if err := third.SaveFileBinary(rt.journal.committedPath()); err != nil {
		t.Fatal(err)
	}

	rt.adminMu.Lock()
	plan, err := rt.planEpoch(ctx, rt.view.Load().members, []byte(corpusJSON("first")))
	rt.adminMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := corpusbin.PeekDeltaChain(plan.delta)
	if err != nil {
		t.Fatalf("no delta planned against the rewritten base: %v", err)
	}
	if got := extract.FormatFingerprint(chain.Base); got != third.FingerprintString() {
		t.Errorf("delta chains from %s, committed.corpus holds %s", got, third.FingerprintString())
	}
	if got := extract.FormatFingerprint(chain.Target); got != fingerprintOf(t, "first") {
		t.Errorf("delta chains to %s, want %s", got, fingerprintOf(t, "first"))
	}
}

// TestPlanRestartedRouterSameBytes: a coordinator restarted over the
// same journal loads its base from committed.corpus and plans exactly
// the bytes its predecessor planned from the base its last commit left
// in memory.
func TestPlanRestartedRouterSameBytes(t *testing.T) {
	nodes := newTestNodes(t, 2)
	dir := t.TempDir()
	rtA, _ := newJournaledRouter(t, nodes, dir, nil)
	ctx := context.Background()
	if _, err := rtA.Rollout(ctx, []byte(corpusJSON("second")), 0); err != nil {
		t.Fatal(err)
	}
	plan := func(rt *Router) *epochPlan {
		t.Helper()
		rt.adminMu.Lock()
		defer rt.adminMu.Unlock()
		p, err := rt.planEpoch(ctx, rt.view.Load().members, []byte(corpusJSON("third")))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cached := rtA.base
	a := plan(rtA)
	if rtA.base != cached {
		t.Error("planning reloaded a base its own commit had cached")
	}
	rtB, _ := newJournaledRouter(t, nodes, dir, nil)
	if rtB.base != nil {
		t.Fatal("a fresh router starts with a cached base")
	}
	b := plan(rtB)
	if !bytes.Equal(a.full, b.full) || !bytes.Equal(a.delta, b.delta) || a.targetFP != b.targetFP {
		t.Errorf("restarted router planned different bytes: full %d/%d, delta %d/%d, fp %s/%s",
			len(a.full), len(b.full), len(a.delta), len(b.delta), a.targetFP, b.targetFP)
	}
	if a.delta == nil {
		t.Error("no delta planned against the committed base")
	}
}

// planMinSpeedup is how much faster planning one epoch on records
// against the cached base must be than the indexed-corpus oracle:
// Load base, Load target, SaveBinary and Diff.
const planMinSpeedup = 2.0

// TestBoundPlanEpochSpeedup times both planners on the benchmark's
// rollout shape — 4096 conventions, 32 of them changed — in
// interleaved rounds, each side's median against the other's.
func TestBoundPlanEpochSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing bound skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing bound skipped under the race detector")
	}
	baseNCs, targetNCs := planCorpora(4096, 32)
	committed, target := hbcOf(t, baseNCs), hbcOf(t, targetNCs)
	rt := &Router{}
	if _, err := rt.committedBaseFor(committed); err != nil {
		t.Fatal(err)
	}
	oracle := func() { oraclePlan(t, committed, target) }
	records := func() {
		base, err := rt.committedBaseFor(committed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := planTarget(base, target); err != nil {
			t.Fatal(err)
		}
	}
	oracleOp, recordsOp := medianTimes(oracle, records)
	speedup := float64(oracleOp) / float64(recordsOp)
	t.Logf("plan epoch: indexed corpora %v, records %v (%.2fx)", oracleOp, recordsOp, speedup)
	if speedup < planMinSpeedup {
		t.Errorf("record planner %v vs indexed-corpus planner %v: %.2fx faster, want >= %.1fx", recordsOp, oracleOp, speedup, planMinSpeedup)
	}
}

// medianTimes times a and b in interleaved rounds, so drift in machine
// speed hits both sides alike, and returns each side's median per-op
// time.
func medianTimes(a, b func()) (time.Duration, time.Duration) {
	const rounds, reps = 9, 2
	a()
	b()
	perOp := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(start) / reps
	}
	as := make([]time.Duration, rounds)
	bs := make([]time.Duration, rounds)
	for i := range as {
		as[i] = perOp(a)
		bs[i] = perOp(b)
	}
	slices.Sort(as)
	slices.Sort(bs)
	return as[rounds/2], bs[rounds/2]
}
