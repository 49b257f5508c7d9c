package main

import (
	"context"
	"net/netip"
	"os"
	"testing"

	"hoiho/internal/asn"
	"hoiho/internal/bdrmapit"
	"hoiho/internal/core"
	"hoiho/internal/extract"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/topo"
)

// writeArtifacts generates a small world and writes the file formats the
// bdrmapit CLI consumes.
func writeArtifacts(t *testing.T, itdkPath, tracesPath, bgpPath, relPath, orgsPath string) {
	t.Helper()
	world, err := topo.Build(topo.DefaultConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	corpus := world.TraceAll()
	aliases := itdk.TruthAliases(world).Degrade(1, 0.8)
	ptr := func(a netip.Addr) string {
		if ifc := world.Interface(a); ifc != nil {
			return ifc.Hostname
		}
		return ""
	}
	graph := itdk.BuildGraph(corpus, aliases, world.Table, ptr)
	ixps := make(map[asn.ASN]bool)
	for _, a := range world.ASes {
		if a.Class == topo.IXP {
			ixps[a.ASN] = true
		}
	}
	an := &bdrmapit.Annotator{Graph: graph, Rel: world.Rel, Orgs: world.Orgs, IXPs: ixps}
	snap := itdk.FromGraph(graph, an.Annotate(), "cli-test", "bdrmapit")

	write := func(path string, fn func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(itdkPath, func(f *os.File) error { _, err := snap.WriteTo(f); return err })
	write(tracesPath, func(f *os.File) error { _, err := corpus.WriteTo(f); return err })
	write(bgpPath, func(f *os.File) error { _, err := world.Table.WriteTo(f); return err })
	write(relPath, func(f *os.File) error { _, err := world.Rel.WriteTo(f); return err })
	write(orgsPath, func(f *os.File) error { _, err := world.Orgs.WriteTo(f); return err })
}

// writeNCs learns conventions from the snapshot and saves them as the
// HBC corpus `hoiho -save` writes.
func writeNCs(t *testing.T, itdkPath, ncsPath string) {
	t.Helper()
	f, err := os.Open(itdkPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := itdk.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	learner := &core.Learner{}
	ncs, err := learner.LearnAll(context.Background(), psl.Default(), snap.TrainingItems())
	if err != nil {
		t.Fatal(err)
	}
	if err := extract.New(ncs).SaveFile(ncsPath); err != nil {
		t.Fatal(err)
	}
}
