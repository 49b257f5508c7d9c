package topo

import (
	"math/rand"
	"strings"
	"testing"

	"hoiho/internal/asn"
	"hoiho/internal/psl"
)

func buildSmall(t testing.TB, seed int64) *Internet {
	t.Helper()
	cfg := DefaultConfig(seed)
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestBuildDeterminism(t *testing.T) {
	a := buildSmall(t, 42)
	b := buildSmall(t, 42)
	if len(a.ASes) != len(b.ASes) || len(a.Routers) != len(b.Routers) || len(a.Links) != len(b.Links) {
		t.Fatal("shape differs between identical seeds")
	}
	ia, ib := a.Interfaces(), b.Interfaces()
	if len(ia) != len(ib) {
		t.Fatalf("interface counts differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i].Addr != ib[i].Addr || ia[i].Hostname != ib[i].Hostname ||
			ia[i].Router.Owner != ib[i].Router.Owner {
			t.Fatalf("interface %d differs: %+v vs %+v", i, ia[i], ib[i])
		}
	}
	ca, cb := a.TraceAll(), b.TraceAll()
	if ca.Len() != cb.Len() {
		t.Fatalf("corpus sizes differ: %d vs %d", ca.Len(), cb.Len())
	}
	for i := range ca.Paths {
		pa, pb := ca.Paths[i], cb.Paths[i]
		if pa.VP != pb.VP || pa.Dst != pb.Dst || len(pa.Hops) != len(pb.Hops) {
			t.Fatalf("path %d differs", i)
		}
	}
}

func TestBuildShape(t *testing.T) {
	in := buildSmall(t, 7)
	cfg := in.Cfg
	if len(in.ASes) != cfg.totalASes() {
		t.Errorf("ASes = %d, want %d", len(in.ASes), cfg.totalASes())
	}
	// Every AS has a core, borders, and a destination covered by its block.
	for _, a := range in.ASes {
		if a.Core == nil || len(a.Borders) == 0 {
			t.Fatalf("%s missing routers", a.Suffix)
		}
		if !a.Block.Contains(a.Dest) {
			t.Errorf("%s dest %v outside block %v", a.Suffix, a.Dest, a.Block)
		}
		if in.Table.Origin(a.Dest) != a.ASN && in.Table.Origin(a.Dest) == asn.None {
			t.Errorf("%s dest unrouted", a.Suffix)
		}
	}
	// Distinct suffixes and ASNs.
	seenSuffix := make(map[string]bool)
	for _, a := range in.ASes {
		if seenSuffix[a.Suffix] {
			t.Errorf("duplicate suffix %s", a.Suffix)
		}
		seenSuffix[a.Suffix] = true
	}
	// Tier-1s form a clique.
	t1 := in.byClass(Tier1)
	for i := range t1 {
		for j := i + 1; j < len(t1); j++ {
			if !in.Rel.IsPeer(t1[i].ASN, t1[j].ASN) {
				t.Errorf("tier1 %d and %d not peers", t1[i].ASN, t1[j].ASN)
			}
		}
	}
	// Stubs have at least one provider.
	for _, s := range in.byClass(Stub) {
		if len(in.Rel.Providers(s.ASN)) == 0 {
			t.Errorf("stub %d has no provider", s.ASN)
		}
	}
	if len(in.VPs) != cfg.VPs {
		t.Errorf("VPs = %d, want %d", len(in.VPs), cfg.VPs)
	}
}

func TestInterfaceInvariants(t *testing.T) {
	in := buildSmall(t, 11)
	list := psl.Default()
	for _, ifc := range in.Interfaces() {
		sup := in.AS(ifc.Supplier)
		if sup == nil {
			t.Fatalf("iface %v has unknown supplier %v", ifc.Addr, ifc.Supplier)
		}
		// The supplier's block or peering LAN contains the address.
		if !sup.Block.Contains(ifc.Addr) && !(sup.LAN.IsValid() && sup.LAN.Contains(ifc.Addr)) {
			t.Errorf("iface %v outside supplier %s block %v", ifc.Addr, sup.Suffix, sup.Block)
		}
		// Hostnames live under the supplier's suffix.
		if ifc.Hostname != "" && !strings.HasSuffix(ifc.Hostname, "."+sup.Suffix) {
			t.Errorf("hostname %q not under supplier suffix %s", ifc.Hostname, sup.Suffix)
		}
		// Hostname must parse and have the supplier suffix as its
		// registered domain.
		if ifc.Hostname != "" {
			reg, ok := list.RegisteredDomain(ifc.Hostname)
			if !ok || reg != sup.Suffix {
				t.Errorf("RegisteredDomain(%q) = %q,%v want %s", ifc.Hostname, reg, ok, sup.Suffix)
			}
		}
		// Embedded ASN bookkeeping: when the supplier labels neighbors
		// and the owner differs, a non-stale name embeds the owner's ASN
		// or a sibling of it (the org-primary labelling case).
		if ifc.EmbeddedASN != asn.None && !ifc.StaleName &&
			sup.Naming != nil && sup.Naming.LabelsNeighbor &&
			ifc.Router.Owner != sup.ASN {
			if !in.Orgs.Siblings(ifc.EmbeddedASN, ifc.Router.Owner) {
				t.Errorf("iface %v embedded %v but owner is %v", ifc.Addr, ifc.EmbeddedASN, ifc.Router.Owner)
			}
		}
		if ifc.StaleName && ifc.EmbeddedASN == ifc.Router.Owner {
			t.Errorf("iface %v stale but embeds the correct ASN", ifc.Addr)
		}
	}
}

func TestBGPLongestPrefix(t *testing.T) {
	in := buildSmall(t, 13)
	// Interdomain /30 addresses resolve to the supplier's ASN; IXP
	// peering LANs are intentionally unannounced (no origin).
	for _, l := range in.Links {
		switch l.Kind {
		case LinkIntra:
			continue
		case LinkIXP:
			for _, ifc := range []*Interface{l.A, l.B} {
				if origin := in.Table.Origin(ifc.Addr); origin != asn.None {
					t.Errorf("LAN addr %v has origin %v, want none", ifc.Addr, origin)
				}
			}
		default:
			for _, ifc := range []*Interface{l.A, l.B} {
				if origin := in.Table.Origin(ifc.Addr); origin != ifc.Supplier {
					t.Errorf("origin(%v) = %v, want supplier %v", ifc.Addr, origin, ifc.Supplier)
				}
			}
		}
	}
}

func TestASPathValleyFree(t *testing.T) {
	in := buildSmall(t, 17)
	classify := func(a, b asn.ASN) string {
		switch {
		case in.Rel.IsProvider(b, a): // b provides to a: a->b is "up"
			return "up"
		case in.Rel.IsProvider(a, b):
			return "down"
		case in.Rel.IsPeer(a, b):
			return "peer"
		default:
			return "none"
		}
	}
	checked := 0
	for i, src := range in.ASes {
		if i%7 != 0 {
			continue
		}
		for j, dst := range in.ASes {
			if j%11 != 0 || src == dst {
				continue
			}
			path := in.ASPath(src.ASN, dst.ASN)
			if path == nil {
				continue
			}
			checked++
			if path[0] != src.ASN || path[len(path)-1] != dst.ASN {
				t.Fatalf("path endpoints wrong: %v", path)
			}
			// Valley-free: up* peer? down*
			stage := 0 // 0=up, 1=peer seen, 2=down
			for k := 0; k+1 < len(path); k++ {
				rel := classify(path[k], path[k+1])
				switch rel {
				case "none":
					t.Fatalf("path %v uses non-adjacent step %v->%v", path, path[k], path[k+1])
				case "up":
					if stage != 0 {
						t.Fatalf("path %v ascends after descending", path)
					}
				case "peer":
					if stage != 0 {
						t.Fatalf("path %v uses a second peer/descent", path)
					}
					stage = 1
				case "down":
					stage = 2
				}
			}
			// No duplicate ASes.
			seen := make(map[asn.ASN]bool)
			for _, a := range path {
				if seen[a] {
					t.Fatalf("path %v loops", path)
				}
				seen[a] = true
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d paths checked", checked)
	}
}

func TestASPathPrefersCustomers(t *testing.T) {
	in := buildSmall(t, 19)
	// For any provider with a customer, path provider->customer must be
	// direct (length 2) or all-down.
	for _, a := range in.byClass(Tier1, Transit) {
		for _, c := range in.Rel.Customers(a.ASN) {
			path := in.ASPath(a.ASN, c)
			if path == nil {
				t.Fatalf("no path from %d to customer %d", a.ASN, c)
			}
			if len(path) != 2 {
				// Direct edge exists, so the path must be the edge.
				t.Errorf("path %d->%d = %v, want direct", a.ASN, c, path)
			}
		}
	}
}

func TestTraceProducesKnownAddrs(t *testing.T) {
	in := buildSmall(t, 23)
	corpus := in.TraceAll()
	if corpus.Len() < 500 {
		t.Fatalf("corpus too small: %d", corpus.Len())
	}
	reached := 0
	for _, p := range corpus.Paths {
		if p.Reached {
			reached++
			last := p.Hops[len(p.Hops)-1]
			if last.Addr != p.Dst {
				t.Errorf("reached path does not end at dst: %v vs %v", last.Addr, p.Dst)
			}
		}
		for _, h := range p.Hops {
			if h.Responded() && in.ByAddr[h.Addr] == nil {
				t.Fatalf("hop %v not a known interface", h.Addr)
			}
		}
	}
	if reached == 0 {
		t.Error("no path reached its destination")
	}
	// Cross-AS hops must include supplier-addressed entry interfaces:
	// at least some hops respond with an address whose BGP origin is not
	// the router owner (the figure-1 situation).
	mismatch := 0
	for _, p := range corpus.Paths {
		for _, h := range p.Hops {
			if !h.Responded() {
				continue
			}
			ifc := in.ByAddr[h.Addr]
			if in.Table.Origin(h.Addr) != ifc.Router.Owner {
				mismatch++
			}
		}
	}
	if mismatch == 0 {
		t.Error("no supplier-addressed hops observed; figure-1 situation missing")
	}
}

func TestTraceSingleDeterministic(t *testing.T) {
	in := buildSmall(t, 29)
	vp, dst := in.VPs[0], in.ASes[len(in.ASes)-1]
	if vp == dst {
		dst = in.ASes[0]
	}
	r1 := rand.New(rand.NewSource(1))
	r2 := rand.New(rand.NewSource(1))
	p1, ok1 := in.Trace(r1, vp, dst)
	p2, ok2 := in.Trace(r2, vp, dst)
	if ok1 != ok2 || len(p1.Hops) != len(p2.Hops) {
		t.Fatal("trace not deterministic")
	}
	for i := range p1.Hops {
		if p1.Hops[i] != p2.Hops[i] {
			t.Fatal("hops differ")
		}
	}
}

func TestNamingStylesPresent(t *testing.T) {
	in := buildSmall(t, 31)
	styles := make(map[Style]int)
	ownLabel := 0
	for _, a := range in.ASes {
		if a.Naming == nil {
			continue
		}
		styles[a.Naming.Style]++
		if !a.Naming.LabelsNeighbor {
			ownLabel++
		}
	}
	if len(styles) < 3 {
		t.Errorf("only %d naming styles present: %v", len(styles), styles)
	}
	if ownLabel == 0 {
		t.Error("no figure-2-style own-ASN operators generated")
	}
	// Some interfaces must carry embedded neighbor ASNs.
	embedded := 0
	for _, ifc := range in.Interfaces() {
		if ifc.EmbeddedASN != asn.None && ifc.EmbeddedASN != ifc.Supplier {
			embedded++
		}
	}
	if embedded < 20 {
		t.Errorf("only %d neighbor-embedded hostnames", embedded)
	}
}

func TestSiblingsExist(t *testing.T) {
	cfg := DefaultConfig(37)
	cfg.SiblingRate = 0.5
	in, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, a := range in.ASes {
		if len(in.Orgs.SiblingSet(a.ASN)) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no sibling organizations generated")
	}
}

func TestMutateASN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		orig := asn.ASN(1000 + rng.Intn(100000))
		got := mutateASN(rng, orig)
		if got == orig.Digits() {
			t.Fatalf("mutateASN(%v) unchanged", orig)
		}
		if len(got) != len(orig.Digits()) {
			t.Fatalf("mutateASN(%v) = %q changed length", orig, got)
		}
		// Exactly one position differs.
		diff := 0
		d := orig.Digits()
		for j := range got {
			if got[j] != d[j] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("mutateASN(%v) = %q has %d diffs", orig, got, diff)
		}
	}
	// Short ASNs are not mutated.
	if got := mutateASN(rng, 42); got != "42" {
		t.Errorf("short ASN mutated: %q", got)
	}
}

func TestAddrAt(t *testing.T) {
	p := mustPfx("10.0.0.0/24")
	a, err := addrAt(p, 1)
	if err != nil || a.String() != "10.0.0.1" {
		t.Errorf("addrAt = %v, %v", a, err)
	}
	if _, err := addrAt(p, 256); err == nil {
		t.Error("out of range should error")
	}
	if _, err := addrAt(p, -1); err == nil {
		t.Error("negative should error")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("empty config should error")
	}
}

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build(DefaultConfig(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceAll(b *testing.B) {
	in := buildSmall(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.TraceAll()
	}
}

// TestBuildDeterminismRarePaths rebuilds one seeded world twice with the
// two generator branches DefaultConfig leaves cold: a fractional
// BackupLinkRate (the last, partial backup port is a coin flip, as in
// examples/openintel) and a bare-style IXP that prefixes its members'
// ASNs (figure 4's p/s and dashed-metro shapes). A draw from the global
// math/rand source on either branch makes the two builds diverge.
func TestBuildDeterminismRarePaths(t *testing.T) {
	build := func() *Internet {
		cfg := DefaultConfig(5) // seed 5 has bare-prefix IXPs
		cfg.BackupLinkRate = 2.5
		in, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := build(), build()

	bare := 0
	for _, as := range a.ASes {
		if as.Class != IXP || as.Naming == nil || as.Naming.Style != StyleBare || !as.Naming.BarePrefix {
			continue
		}
		for _, ifc := range a.Interfaces() {
			if ifc.Supplier == as.ASN && strings.HasSuffix(ifc.Hostname, "."+as.Suffix) && ifc.EmbeddedASN != asn.None {
				bare++
			}
		}
	}
	if bare == 0 {
		t.Fatal("no ASN-embedding hostname under a bare-prefix IXP; the seed no longer runs that branch")
	}

	if len(a.Links) != len(b.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		la, lb := a.Links[i], b.Links[i]
		if la.Kind != lb.Kind || la.A.Addr != lb.A.Addr || la.B.Addr != lb.B.Addr ||
			la.A.Hostname != lb.A.Hostname || la.B.Hostname != lb.B.Hostname {
			t.Fatalf("link %d differs: %s %q - %s %q vs %s %q - %s %q", i,
				la.A.Addr, la.A.Hostname, la.B.Addr, la.B.Hostname,
				lb.A.Addr, lb.A.Hostname, lb.B.Addr, lb.B.Hostname)
		}
	}
	ia, ib := a.Interfaces(), b.Interfaces()
	if len(ia) != len(ib) {
		t.Fatalf("interface counts differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i].Addr != ib[i].Addr || ia[i].Hostname != ib[i].Hostname {
			t.Fatalf("interface %d differs: %s %q vs %s %q", i, ia[i].Addr, ia[i].Hostname, ib[i].Addr, ib[i].Hostname)
		}
	}
}
