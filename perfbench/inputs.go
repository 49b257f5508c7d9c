package main

// Seeded input generation. Every entity that draws random inputs (a
// lookup client, a batch stream, the rollout corpus variant, the learn
// suffix sample) owns its own RNG, derived from the run seed and the
// entity's name, so the inputs one entity sees never depend on how many
// draws another made. The system under test only ever receives the
// bytes built here.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"

	"hoiho/internal/core"
	"hoiho/internal/experiments"
	"hoiho/internal/extract"
	"hoiho/internal/rex"
)

const (
	corpusSuffixes = 4096    // NCs in the served corpus
	universeHosts  = 200_000 // distinct hostnames lookups and batches draw from
	zipfS          = 1.1     // lookup popularity skew
	changedRecords = 32      // NCs that differ between the two rollout corpora
	batchHosts     = 1000    // hostnames per POST /extract body
	learnBlock     = 4       // the learn sample keeps learnKeep suffixes
	learnKeep      = 3       // of every learnBlock ranked by size
)

// entityRNG returns the RNG stream of one named entity under seed.
func entityRNG(seed uint64, entity string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(entity))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// baseNCs is the served corpus: experiments.CorpusWorkload's conventions,
// one per registered domain. It does not depend on the seed.
func baseNCs() []*core.NC {
	ncs, _ := experiments.CorpusWorkload(corpusSuffixes, 0)
	return ncs
}

// universe returns universeHosts distinct CorpusWorkload hostnames, in
// generation order. CorpusWorkload repeats some names once its counters
// wrap, so it is asked for more than needed and deduplicated.
func universe() []string {
	_, hosts := experiments.CorpusWorkload(corpusSuffixes, 2*universeHosts)
	seen := make(map[string]bool, universeHosts)
	out := make([]string, 0, universeHosts)
	for _, h := range hosts {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
			if len(out) == universeHosts {
				return out
			}
		}
	}
	panic(fmt.Sprintf("perfbench: CorpusWorkload yields only %d distinct hostnames", len(out)))
}

// variantNCs returns a copy of ncs in which changedRecords conventions,
// chosen by the seed's "corpus-variant" stream, no longer match any
// workload hostname: their hosts flip from found to not found, so a
// lookup's answer tells which corpus served it.
func variantNCs(seed uint64, ncs []*core.NC) []*core.NC {
	rng := entityRNG(seed, "corpus-variant")
	out := append([]*core.NC(nil), ncs...)
	for _, i := range rng.Perm(len(ncs))[:changedRecords] {
		nc := *out[i]
		nc.Regexes = []*rex.Regex{rex.MustNew(rex.Lit("xs"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit("."+nc.Suffix))}
		out[i] = &nc
	}
	return out
}

// encodeHBC compiles ncs the way `hoiho -save x.hbc` does and returns
// the HBC bytes.
func encodeHBC(ncs []*core.NC) ([]byte, error) {
	c := extract.New(ncs)
	c.Precompile()
	var buf bytes.Buffer
	if err := c.SaveBinary(&buf); err != nil {
		return nil, fmt.Errorf("perfbench: encoding corpus: %w", err)
	}
	return buf.Bytes(), nil
}

// hostStream is an endless, seeded sequence of universe indices.
type hostStream interface{ next() int }

// zipfStream draws universe indices with Zipf popularity over a seeded
// ranking, so the popular hosts differ from seed to seed.
type zipfStream struct {
	z    *rand.Zipf
	rank []int
}

func newZipfStream(seed uint64, entity string) *zipfStream {
	rng := entityRNG(seed, entity)
	return &zipfStream{
		rank: entityRNG(seed, "zipf-ranking").Perm(universeHosts),
		z:    rand.NewZipf(rng, zipfS, 1, universeHosts-1),
	}
}

func (s *zipfStream) next() int { return s.rank[s.z.Uint64()] }

// sweepStream visits every universe index once per seeded permutation,
// like a PTR sweep, then reshuffles.
type sweepStream struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newSweepStream(seed uint64, entity string) *sweepStream {
	rng := entityRNG(seed, entity)
	return &sweepStream{rng: rng, perm: rng.Perm(universeHosts)}
}

func (s *sweepStream) next() int {
	if s.pos == len(s.perm) {
		s.perm, s.pos = s.rng.Perm(universeHosts), 0
	}
	s.pos++
	return s.perm[s.pos-1]
}

// take returns the next n indices of s.
func take(s hostStream, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// Entity names of the lookup and batch streams. Client k of a closed
// loop uses closedEntity(k); the open loop has one schedule shared by
// its connections.
const (
	openEntity = "lookup-open"
	bgEntity   = "rollout-background"
)

func closedEntity(k int) string { return fmt.Sprintf("lookup-closed-%d", k) }
func batchEntity(k int) string  { return fmt.Sprintf("batch-client-%d", k) }

// learnSample picks a seeded sample of the suffixes whose total
// learning work is nearly the same for every seed: suffixes are ranked
// by item count, and from each block of learnBlock consecutive ranks
// the seed's "learn-sample" stream keeps learnKeep. It returns the kept
// suffixes' items in suffix order.
func learnSample(seed uint64, suffixes []string, groups map[string][]core.Item) []core.Item {
	ranked := append([]string(nil), suffixes...)
	sort.SliceStable(ranked, func(i, j int) bool { return len(groups[ranked[i]]) > len(groups[ranked[j]]) })
	rng := entityRNG(seed, "learn-sample")
	keep := make(map[string]bool)
	for b := 0; b+learnBlock <= len(ranked); b += learnBlock {
		for _, i := range rng.Perm(learnBlock)[:learnKeep] {
			keep[ranked[b+i]] = true
		}
	}
	var items []core.Item
	for _, suf := range suffixes {
		if keep[suf] {
			items = append(items, groups[suf]...)
		}
	}
	return items
}
