package experiments

// Synthetic benchmark workloads shared by the repo-level benchmarks
// (bench_test.go), the performance-bound tests in internal/extract and
// internal/core, and perfbench, so every measurement sees the same
// shapes.

import (
	"fmt"

	"hoiho/internal/asn"
	"hoiho/internal/core"
	"hoiho/internal/rex"
)

// LargeSuffixItems fabricates one dominant suffix with n items across
// four coexisting hostname formats (start-style, end-style, bare with
// POP, and noise rows that create FPs and FNs) — the shape that makes
// the §3.5 set phase expensive: many candidate regexes, several of
// which must combine into the final NC.
func LargeSuffixItems(n int) []core.Item {
	pops := []string{"nyc", "lax", "fra", "lhr", "sin", "syd", "ams", "cdg", "waw", "yyz"}
	items := make([]core.Item, 0, n)
	for i := 0; i < n; i++ {
		a := 2000 + (i%97)*31
		pop := pops[i%len(pops)]
		var host string
		switch i % 5 {
		case 0:
			host = fmt.Sprintf("as%d-%s-%d.bigcarrier.net", a, pop, i%4)
		case 1:
			host = fmt.Sprintf("xe%d.cust.as%d.bigcarrier.net", i%8, a)
		case 2:
			host = fmt.Sprintf("%d.%s%d.bigcarrier.net", a, pop, i%3)
		case 3:
			host = fmt.Sprintf("p%d.%s.bigcarrier.net", a, pop)
		default:
			// Noise: apparent ASN the conventions miss (FN pressure) or
			// plain infrastructure names.
			if i%2 == 0 {
				host = fmt.Sprintf("lo0-as%d.core.%s.bigcarrier.net", a, pop)
			} else {
				host = fmt.Sprintf("ge0-%d.core%d.%s.bigcarrier.net", i%4, i%30, pop)
			}
		}
		items = append(items, core.Item{Hostname: host, ASN: asn.ASN(a)})
	}
	return items
}

// Figure4Items is the training data of the paper's worked example
// (figure 4, rows a-p); the full pipeline lands at ATP 8 on it.
func Figure4Items() []core.Item {
	return []core.Item{
		{Hostname: "109.sgw.equinix.com", ASN: 109},
		{Hostname: "714.os.equinix.com", ASN: 714},
		{Hostname: "714.me1.equinix.com", ASN: 714},
		{Hostname: "p714.sgw.equinix.com", ASN: 714},
		{Hostname: "s714.sgw.equinix.com", ASN: 714},
		{Hostname: "p24115.mel.equinix.com", ASN: 24115},
		{Hostname: "s24115.tyo.equinix.com", ASN: 24115},
		{Hostname: "22822-2.tyo.equinix.com", ASN: 22282},
		{Hostname: "24482-fr5-ix.equinix.com", ASN: 24482},
		{Hostname: "54827-dc5-ix2.equinix.com", ASN: 54827},
		{Hostname: "55247-ch3-ix.equinix.com", ASN: 55247},
		{Hostname: "netflix.zh2.corp.eu.equinix.com", ASN: 2906},
		{Hostname: "ipv4.dosarrest.eqix.equinix.com", ASN: 19324},
		{Hostname: "8069.tyo.equinix.com", ASN: 8075},
		{Hostname: "8074.hkg.equinix.com", ASN: 8075},
		{Hostname: "45437-sy1-ix.equinix.com", ASN: 55923},
	}
}

// CorpusWorkload builds a serving-scale workload: nNCs conventions over
// distinct registered domains and nHosts hostnames, roughly half of
// which match some convention (the rest miss by shape or suffix).
func CorpusWorkload(nNCs, nHosts int) ([]*core.NC, []string) {
	ncs := make([]*core.NC, nNCs)
	for i := range ncs {
		suffix := fmt.Sprintf("carrier%04d.net", i)
		r := rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit("."+suffix))
		ncs[i] = &core.NC{Suffix: suffix, Regexes: []*rex.Regex{r}, Class: core.Good}
	}
	hosts := make([]string, nHosts)
	for i := range hosts {
		suffix := fmt.Sprintf("carrier%04d.net", i%nNCs)
		switch i % 4 {
		case 0, 1:
			hosts[i] = fmt.Sprintf("as%d-pop%d.%s", 1000+i%60000, i%40, suffix)
		case 2:
			hosts[i] = fmt.Sprintf("lo0.core%d.%s", i%100, suffix) // suffix hit, regex miss
		default:
			hosts[i] = fmt.Sprintf("as%d-pop%d.unknown%d.org", 1000+i%60000, i%40, i%500) // unknown suffix
		}
	}
	return ncs, hosts
}
