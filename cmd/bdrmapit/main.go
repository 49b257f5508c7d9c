// Command bdrmapit runs the reimplemented bdrmapIT router-ownership
// inference over a traceroute corpus, optionally with Hoiho-learned
// naming conventions (the paper's §5 modification), and prints per-node
// annotations plus the decisions taken for hostnames that disagreed with
// the initial inference.
//
// Inputs:
//
//	-traces  traceroute corpus (traceroute.WriteTo format)   [required]
//	-bgp     BGP table, "prefix|origin" lines                [required]
//	-itdk    ITDK snapshot supplying alias sets and PTRs     [required]
//	-rel     AS relationships (CAIDA as-rel format)          [optional]
//	-orgs    AS-to-organization map, "asn|org" lines         [optional]
//	-ncs     learned conventions, HBC (from hoiho -save)     [optional]
//
// Example:
//
//	itdkgen -o itdk.txt -traces tr.txt -bgp bgp.txt -rel rel.txt -orgs orgs.txt
//	hoiho -save ncs.hbc -format itdk itdk.txt
//	bdrmapit -itdk itdk.txt -traces tr.txt -bgp bgp.txt -rel rel.txt -orgs orgs.txt -ncs ncs.hbc
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"

	"hoiho/internal/asn"
	"hoiho/internal/bdrmapit"
	"hoiho/internal/bgp"
	"hoiho/internal/extract"
	"hoiho/internal/itdk"
	"hoiho/internal/traceroute"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bdrmapit:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bdrmapit", flag.ContinueOnError)
	tracesPath := fs.String("traces", "", "traceroute corpus (required)")
	bgpPath := fs.String("bgp", "", "BGP table file (required)")
	itdkPath := fs.String("itdk", "", "ITDK snapshot for alias sets and PTR records (required)")
	relPath := fs.String("rel", "", "AS relationships file")
	orgsPath := fs.String("orgs", "", "AS-to-organization file")
	ncsPath := fs.String("ncs", "", "learned conventions, the HBC corpus hoiho -save writes; enables the §5 modification")
	showDecisions := fs.Bool("decisions", true, "print hostname decisions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracesPath == "" || *bgpPath == "" || *itdkPath == "" {
		return fmt.Errorf("-traces, -bgp, and -itdk are required")
	}

	corpus, err := readWith(*tracesPath, traceroute.Parse)
	if err != nil {
		return err
	}
	table, err := readWith(*bgpPath, bgp.ParseTable)
	if err != nil {
		return err
	}
	snap, err := readWith(*itdkPath, itdk.Parse)
	if err != nil {
		return err
	}

	// Alias sets and PTR records come from the snapshot.
	aliases := itdk.NewAliases()
	hostnames := make(map[netip.Addr]string)
	for _, rec := range snap.Nodes {
		for i, a := range rec.Addrs {
			aliases.Assign(a, rec.ID)
			if rec.Hostnames[i] != "" {
				hostnames[a] = rec.Hostnames[i]
			}
		}
	}
	graph := itdk.BuildGraph(corpus, aliases, table, func(a netip.Addr) string {
		return hostnames[a]
	})
	// The input parses above are the long-haul I/O; bail cleanly if a
	// signal arrived during them rather than starting the annotator.
	if err := ctx.Err(); err != nil {
		return err
	}

	an := &bdrmapit.Annotator{Graph: graph, IXPs: map[asn.ASN]bool{}}
	if *relPath != "" {
		if an.Rel, err = readWith(*relPath, asn.ParseRelationships); err != nil {
			return err
		}
	}
	if *orgsPath != "" {
		if an.Orgs, err = readWith(*orgsPath, asn.ParseOrgs); err != nil {
			return err
		}
	}

	if *ncsPath == "" {
		ann := an.Annotate()
		for _, n := range graph.Nodes {
			fmt.Fprintf(out, "node N%d %s\n", n.ID, ann[n.ID])
		}
		return nil
	}

	conventions, err := extract.LoadFile(*ncsPath)
	if err != nil {
		return err
	}
	res := an.AnnotateWithCorpus(ctx, conventions)
	for _, n := range graph.Nodes {
		marker := ""
		if res.Annotations[n.ID] != res.Initial[n.ID] {
			marker = fmt.Sprintf("  (bdrmapIT inferred %s; hostname evidence)", res.Initial[n.ID])
		}
		fmt.Fprintf(out, "node N%d %s%s\n", n.ID, res.Annotations[n.ID], marker)
	}
	if *showDecisions {
		fmt.Fprintf(out, "# %d interfaces with extracted ASNs; %d decisions\n",
			res.Extractions, len(res.Decisions))
		for _, d := range res.Decisions {
			verdict := "rejected (stale/typo)"
			if d.Used {
				verdict = "used"
			}
			fmt.Fprintf(out, "# decision node=N%d host=%s extracted=%s initial=%s class=%s -> %s\n",
				d.Node, d.Hostname, d.Extracted, d.Initial, d.NCClass, verdict)
		}
	}
	return nil
}

// readWith opens path and parses it with fn.
func readWith[T any](path string, fn func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	v, err := fn(f)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
