package experiments

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/psl"
)

// The learner's metamorphic invariants, pinned on the last ITDK era at
// test scale. Each relearns a transformed training set and compares it
// with the learned corpus of the untouched set.

// learnItems runs the learner the way RunITDKEra does.
func learnItems(t *testing.T, list *psl.List, items []core.Item) []*core.NC {
	t.Helper()
	ncs, err := (&core.Learner{}).LearnAll(context.Background(), list, items)
	if err != nil {
		t.Fatal(err)
	}
	return ncs
}

// TestLearnOrderInvariant: shuffling the training items, three seeded
// ways, leaves the learned corpus's fingerprint unchanged.
func TestLearnOrderInvariant(t *testing.T) {
	list := psl.Default()
	run, err := RunITDKEra(context.Background(), ITDKEras()[16], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	want := core.FingerprintNCs(run.NCs)
	for seed := int64(1); seed <= 3; seed++ {
		shuffled := slices.Clone(run.Items)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := core.FingerprintNCs(learnItems(t, list, shuffled)); got != want {
			t.Fatalf("items shuffled with seed %d learn fingerprint %016x, want %016x", seed, got, want)
		}
	}
}

// TestLearnSuffixLocality: dropping every item of one suffix removes
// that suffix's NC and changes no other suffix's regexes or class. Each
// learned suffix is dropped in turn.
func TestLearnSuffixLocality(t *testing.T) {
	list := psl.Default()
	run, err := RunITDKEra(context.Background(), ITDKEras()[16], testScale, list)
	if err != nil {
		t.Fatal(err)
	}
	for _, dropped := range run.NCs {
		drop := dropped.Suffix
		var kept []core.Item
		for _, it := range run.Items {
			if reg, ok := list.RegisteredDomain(it.Hostname); !ok || reg != drop {
				kept = append(kept, it)
			}
		}
		got := learnItems(t, list, kept)
		var want []*core.NC
		for _, nc := range run.NCs {
			if nc.Suffix != drop {
				want = append(want, nc)
			}
		}
		if len(got) != len(want) {
			t.Errorf("dropping %s: learned %d NCs, want %d", drop, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].Suffix != want[i].Suffix || got[i].Class != want[i].Class ||
				!slices.Equal(got[i].Strings(), want[i].Strings()) {
				t.Errorf("dropping %s changed %s: %v %v, want %v %v", drop, want[i].Suffix,
					got[i].Class, got[i].Strings(), want[i].Class, want[i].Strings())
			}
		}
	}
}
