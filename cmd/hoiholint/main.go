// Command hoiholint runs hoiho's project-specific static analyzers over
// the whole module. The pass is typed and interprocedural: it builds a
// call graph with go/types (method values, interface dispatch, and
// closures resolved) and runs eight analyzers over it — determinism of
// map iteration (detmap), WaitGroup and close discipline in goroutines
// (wghygiene), panic policy (panicguard), the cancellation contract on
// exported pipeline entry points (ctxflow), the zero-alloc hot-path
// proof (hotalloc), lock order (lockorder), error qualification and %w
// wrapping (errwrap), and goroutine send cancellation arms
// (gororeturn). A
// zero-alloc root that no longer resolves is a finding too (check
// "roots"). See internal/analysis for the rules and the //hoiho:<verb>
// annotation grammar, and DESIGN.md §14 for which other check covers
// each bug class the pass leaves out.
//
// Usage:
//
//	go run ./cmd/hoiholint ./...
//	go run ./cmd/hoiholint -json ./...
//
// The package pattern is accepted for familiarity but the tool always
// analyzes every package in the enclosing module (or the one holding
// the -C directory). Each text finding is followed by the annotation
// that would suppress it. Exits 1 when there are findings, 2 when the
// module cannot be loaded or a flag is misused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hoiho/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("hoiholint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	dir := fs.String("C", ".", "directory inside the module to lint")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root, err := analysis.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "hoiholint:", err)
		return 2
	}
	prog, err := analysis.LoadModule(root, analysis.Default())
	if err != nil {
		fmt.Fprintln(stderr, "hoiholint:", err)
		return 2
	}
	diags := prog.Run(analysis.Analyzers())

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "hoiholint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
			if d.Suggest != "" {
				fmt.Fprintf(stdout, "\tsuppress with: %s\n", d.Suggest)
			}
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "hoiholint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
