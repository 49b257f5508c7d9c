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

// rawHBC encodes ncs as given, in their order, duplicates kept: the
// kind of HBC only a foreign writer produces when ncs are not
// canonical.
func rawHBC(t testing.TB, ncs []*core.NC) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := corpusbin.Encode(&buf, ncs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	// An alternation token with no alternatives, which no learner emits
	// and the engine reads as "(?:)".
	emptyAlt := slices.Clone(targetNCs)
	withAlt := *emptyAlt[0]
	withAlt.Regexes = []*rex.Regex{rex.MustNew(append(withAlt.Regexes[0].Tokens(), rex.Token{Kind: rex.KindAlt, Opt: true})...)}
	emptyAlt[0] = &withAlt
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
		// refused: the target is not loadable, so the oracle's Load
		// and the planner must both refuse it.
		refused bool
	}{
		{"canonical HBC", committed, hbcOf(t, targetNCs), false},
		{"unsorted HBC", committed, rawHBC(t, reversed), false},
		{"duplicate suffixes", committed, rawHBC(t, dups), false},
		{"empty alternation", committed, rawHBC(t, emptyAlt), false},
		{"JSON", committed, jsonBuf.Bytes(), true},
		{"posted HBD", committed, patch.Bytes(), false},
		{"first epoch", nil, hbcOf(t, targetNCs), false},
		{"unchanged target", committed, hbcOf(t, baseNCs), false},
		{"unsorted committed", rawHBC(t, reversedBase), hbcOf(t, targetNCs), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.refused {
				if _, err := extract.Load(bytes.NewReader(tc.data)); err == nil {
					t.Fatal("oracle: the target loads")
				}
				decoded, err := loadBase(tc.committed)
				if err != nil {
					t.Fatal(err)
				}
				for how, base := range map[string]*committedBase{"no base": nil, "decoded base": decoded} {
					if _, err := planTarget(base, tc.data); err == nil || !strings.Contains(err.Error(), "hoiho -save") {
						t.Errorf("%s: planned, or refused without naming `hoiho -save`: %v", how, err)
					}
				}
				return
			}
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
		"HBD, no base":    []byte("HBD\x02"),
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
	if _, err := rt.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	if rt.base == nil {
		t.Fatal("commit left no cached base")
	}
	third, _ := extract.Load(bytes.NewReader(corpusHBC(t, "third")))
	if err := third.SaveFile(rt.journal.committedPath()); err != nil {
		t.Fatal(err)
	}

	rt.adminMu.Lock()
	plan, err := rt.planEpoch(ctx, rt.view.Load().members, corpusHBC(t, "first"))
	rt.adminMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if plan.delta == nil {
		t.Fatal("no delta planned against the rewritten base")
	}
	// The delta applies only to the corpus it chains from.
	patched, _, err := extract.ApplyDelta(third, plan.delta)
	if err != nil {
		t.Fatalf("delta does not apply to the corpus committed.corpus holds: %v", err)
	}
	if got := patched.FingerprintString(); got != fingerprintOf(t, "first") {
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
	if _, err := rtA.Rollout(ctx, corpusHBC(t, "second"), 0); err != nil {
		t.Fatal(err)
	}
	plan := func(rt *Router) *epochPlan {
		t.Helper()
		rt.adminMu.Lock()
		defer rt.adminMu.Unlock()
		p, err := rt.planEpoch(ctx, rt.view.Load().members, corpusHBC(t, "third"))
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

// planTargetMaxAllocs caps what the coordinator allocates to plan one
// epoch of the benchmark's rollout shape against the cached base:
// decode the posted target, encode it once into the full bytes, the
// delta and the next base's key index. Measured 20,641 (the same under
// -race), about five per record: the record, its regex list, each
// regex and its tokens, and the rendered regex the fingerprint hashes.
// With each record's compiled programs stored beside its regexes, and
// each string of the table allocated on its own, it was 53,414.
const planTargetMaxAllocs = 22_000

// TestBoundPlanTargetAllocs: planning an epoch allocates a few objects
// per record and nothing per compiled program or interned string.
func TestBoundPlanTargetAllocs(t *testing.T) {
	baseNCs, targetNCs := planCorpora(4096, 32)
	committed, target := hbcOf(t, baseNCs), hbcOf(t, targetNCs)
	base, err := loadBase(committed)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := planTarget(base, target); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("plan epoch of %d conventions (%d bytes): %v allocs", len(targetNCs), len(target), allocs)
	if allocs > planTargetMaxAllocs {
		t.Errorf("planTarget = %v allocs/op, want <= %d", allocs, planTargetMaxAllocs)
	}
}

// BenchmarkPlanTarget plans one rollout epoch on the coordinator: the
// 32-of-4096 target, posted as HBC, against the committed base.
func BenchmarkPlanTarget(b *testing.B) {
	baseNCs, targetNCs := planCorpora(4096, 32)
	committed, target := hbcOf(b, baseNCs), hbcOf(b, targetNCs)
	base, err := loadBase(committed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planTarget(base, target); err != nil {
			b.Fatal(err)
		}
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
