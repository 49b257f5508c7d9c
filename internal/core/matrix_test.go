package core

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"hoiho/internal/asn"
	"hoiho/internal/rex"
)

// randomItems fabricates a training set mixing clean conventions,
// typo'd ASNs, embedded-IP hostnames (figure 3b), incongruent training
// ASNs, and ASN-free noise.
func randomItems(rng *rand.Rand, n int) []Item {
	pops := []string{"nyc", "lax", "fra", "lhr", "sin", "ams"}
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		a := 1000 + rng.Intn(60000)
		pop := pops[rng.Intn(len(pops))]
		switch rng.Intn(8) {
		case 0, 1: // start style
			items = append(items, Item{Hostname: fmt.Sprintf("as%d-%s-%d.rand.net", a, pop, rng.Intn(4)), ASN: asn.ASN(a)})
		case 2: // end style
			items = append(items, Item{Hostname: fmt.Sprintf("xe%d.cust.as%d.rand.net", rng.Intn(8), a), ASN: asn.ASN(a)})
		case 3: // bare
			items = append(items, Item{Hostname: fmt.Sprintf("%d.%s%d.rand.net", a, pop, rng.Intn(3)), ASN: asn.ASN(a)})
		case 4: // typo'd apparent ASN: swap two middle digits
			d := fmt.Sprintf("%d", a)
			if len(d) >= 4 {
				b := []byte(d)
				b[1], b[2] = b[2], b[1]
				items = append(items, Item{Hostname: fmt.Sprintf("as%s-%s.rand.net", string(b), pop), ASN: asn.ASN(a)})
				break
			}
			items = append(items, Item{Hostname: fmt.Sprintf("as%d-%s.rand.net", a, pop), ASN: asn.ASN(a)})
		case 5: // incongruent training ASN: hostname digits differ entirely
			items = append(items, Item{Hostname: fmt.Sprintf("as%d-%s-%d.rand.net", a, pop, rng.Intn(4)), ASN: asn.ASN(90000 + rng.Intn(5000))})
		case 6: // embedded IP whose last octet echoes the training ASN
			o := 1 + rng.Intn(250)
			addr := netip.AddrFrom4([4]byte{10, byte(rng.Intn(250)), byte(rng.Intn(250)), byte(o)})
			items = append(items, Item{
				Hostname: fmt.Sprintf("10-%d-%d-%d-static.%s.rand.net", addr.As4()[1], addr.As4()[2], o, pop),
				Addr:     addr,
				ASN:      asn.ASN(o),
			})
		default: // noise without any apparent ASN
			items = append(items, Item{Hostname: fmt.Sprintf("lo0.core.%s.rand.net", pop), ASN: asn.ASN(a)})
		}
	}
	return items
}

// randomPool builds a candidate pool from the set's own generator plus
// hand-written shapes covering left-open regexes, alternations, and
// character classes.
func randomPool(t *testing.T, rng *rand.Rand, set *Set) []*rex.Regex {
	pool := set.generate()
	for _, src := range []string{
		`as(\d+)\.rand\.net$`, // left-open, figure-2 style
		`^as(\d+)-[a-z]+-\d+\.rand\.net$`,
		`^(?:p|s)?(\d+)\.[a-z\d]+\.rand\.net$`,
		`^[^\.]+\.cust\.as(\d+)\.rand\.net$`,
		`^(\d+)-.+\.rand\.net$`,
		`(\d+)\.rand\.net$`, // left-open bare capture
	} {
		pool = append(pool, mustParseRegex(t, src))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > 48 {
		pool = pool[:48]
	}
	return pool
}

// TestMatrixMatchesOracle is the engine's equivalence proof: on
// randomized item sets and regex pools, every memoized evaluation —
// single-regex columns, ordered set combines, and the incremental
// greedy trials — must return the same Eval as the naive Evaluate
// oracle. Run under -race it also exercises the parallel column builds.
func TestMatrixMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 25; trial++ {
		opts := Options{
			DisableTypoCredit: trial%3 == 0,
			Workers:           1 + rng.Intn(4),
		}
		set, err := NewSet("rand.net", randomItems(rng, 20+rng.Intn(120)), opts)
		if err != nil {
			t.Fatal(err)
		}
		pool := randomPool(t, rng, set)
		m := set.mx
		if err := m.ensure(context.Background(), pool); err != nil {
			t.Fatal(err)
		}

		// Single-regex columns against the oracle.
		for _, r := range pool {
			want := set.Evaluate(r)
			got := m.column(r).eval
			if got != want {
				t.Fatalf("trial %d: column eval(%s) = %+v, oracle %+v", trial, r, got, want)
			}
		}

		// Ordered subsets against the oracle, and the incremental greedy
		// combine against full re-evaluation at every step.
		for sub := 0; sub < 8; sub++ {
			k := 1 + rng.Intn(5)
			regexes := make([]*rex.Regex, 0, k)
			cols := make([]*column, 0, k)
			for len(regexes) < k {
				r := pool[rng.Intn(len(pool))]
				regexes = append(regexes, r)
				cols = append(cols, m.column(r))
			}
			want := set.Evaluate(regexes...)
			if got := m.evalSet(cols); got != want {
				t.Fatalf("trial %d: evalSet(%v) = %+v, oracle %+v", trial, regexes, got, want)
			}
			state := m.newSetState()
			accepted := make([]*rex.Regex, 0, k)
			for i, c := range cols {
				trialOracle := set.Evaluate(append(append([]*rex.Regex(nil), accepted...), regexes[i])...)
				if got := state.trialATP(c); got != trialOracle.ATP() {
					t.Fatalf("trial %d: trialATP(%s after %v) = %d, oracle %d",
						trial, regexes[i], accepted, got, trialOracle.ATP())
				}
				if rng.Intn(2) == 0 {
					state.absorb(c)
					accepted = append(accepted, regexes[i])
					if state.atp() != trialOracle.ATP() {
						t.Fatalf("trial %d: absorbed ATP %d != oracle %d", trial, state.atp(), trialOracle.ATP())
					}
				}
			}
		}
	}
}

// TestLearnEvalConsistency: whatever NC the memoized pipeline learns,
// re-scoring its regexes through the naive oracle must reproduce the
// stored Eval exactly.
func TestLearnEvalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		set, err := NewSet("rand.net", randomItems(rng, 30+rng.Intn(100)), Options{Workers: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		nc := learnT(t, set)
		if nc == nil {
			continue
		}
		if got := set.Evaluate(nc.Regexes...); got != nc.Eval {
			t.Fatalf("trial %d: NC eval %+v, oracle %+v (%v)", trial, nc.Eval, got, nc.Strings())
		}
	}
}

// TestMatrixBadColumn: a regex that cannot compile must evaluate like
// the oracle does (no matches, every apparent-ASN item an FN) and must
// not derail set evaluation.
func TestMatrixBadColumn(t *testing.T) {
	set, err := NewSet("x.com", []Item{
		{Hostname: "as100.x.com", ASN: 100},
		{Hostname: "lo0.x.com", ASN: 200},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := set.mx
	bad := &column{bad: true}
	m.finishColumn(bad, nil)
	if bad.eval.FN != 1 || bad.eval.Matches != 0 {
		t.Errorf("bad column eval = %+v, want FN=1", bad.eval)
	}
	good := m.column(mustParseRegex(t, `^as(\d+)\.x\.com$`))
	ev := m.evalSet([]*column{bad, good})
	if ev.TP != 1 || ev.FN != 0 {
		t.Errorf("evalSet with bad column = %+v, want TP=1 FN=0", ev)
	}
	st := m.newSetState()
	if st.trialATP(bad) != st.atp() {
		t.Error("trialATP on a bad column must be a no-op")
	}
}

// TestBitset covers the word-boundary arithmetic the engine leans on.
func TestBitset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		b := newBitset(n)
		b.fill(n)
		if b.count() != n {
			t.Errorf("fill(%d).count() = %d", n, b.count())
		}
	}
	b := newBitset(130)
	b.set(0)
	b.set(64)
	b.set(129)
	if b.count() != 3 || !b.get(129) || b.get(128) {
		t.Errorf("bitset ops broken: count=%d", b.count())
	}
}

// TestOptionsMaxSingleNCs pins the hoisted single-regex NC cap: the
// default is 32, and a sweep value must restrict how many top-ranked
// single regexes reach final selection.
func TestOptionsMaxSingleNCs(t *testing.T) {
	if got := (Options{}).maxSingleNCs(); got != 32 {
		t.Errorf("default maxSingleNCs = %d, want 32", got)
	}
	if got := (Options{MaxSingleNCs: 5}).maxSingleNCs(); got != 5 {
		t.Errorf("maxSingleNCs = %d, want 5", got)
	}

	// Two formats; sets disabled so the NC must be a single regex. With
	// the cap at 1, only the rank-1 regex is a candidate; ranking by PPV
	// puts the small perfect-precision format first, while §3.6's
	// ATP-ordered selection would otherwise prefer the big format's
	// regex from deeper in the ranking.
	var items []Item
	for i := 0; i < 12; i++ {
		a := 3000 + i*11
		items = append(items, Item{Hostname: fmt.Sprintf("as%d-pop%d.cap.net", a, i%4), ASN: asn.ASN(a)})
	}
	// One FP row drops the big format's PPV below the small format's.
	items = append(items, Item{Hostname: "as9999-pop0.cap.net", ASN: asn.ASN(77)})
	for i := 0; i < 3; i++ {
		a := 8000 + i*17
		items = append(items, Item{Hostname: fmt.Sprintf("gw%d.cust%d.cap.net", a, i), ASN: asn.ASN(a)})
	}
	opts := Options{DisableSets: true, RankByPPV: true}
	capped := opts
	capped.MaxSingleNCs = 1

	full, err := NewSet("cap.net", items, opts)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewSet("cap.net", items, capped)
	if err != nil {
		t.Fatal(err)
	}
	ncFull, ncOne := learnT(t, full), learnT(t, one)
	if ncFull == nil || ncOne == nil {
		t.Fatal("learning failed")
	}
	if ncOne.Eval.TP >= ncFull.Eval.TP {
		t.Errorf("cap=1 should pin the PPV-ranked single NC: TP %d (capped) vs %d (default), %v vs %v",
			ncOne.Eval.TP, ncFull.Eval.TP, ncOne.Strings(), ncFull.Strings())
	}
}
