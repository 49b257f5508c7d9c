package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hoiho/internal/analysis"
)

// TestSelfCheckModuleClean runs the full pass over the real module —
// the same invocation CI uses — and requires zero findings: every real
// violation is fixed and every intentional one is annotated.
func TestSelfCheckModuleClean(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.LoadModule(root, analysis.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) < 20 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(prog.Packages))
	}
	for _, d := range prog.Run(analysis.Analyzers()) {
		t.Errorf("finding on clean module: %s", d)
	}
}

// wgAddInside is a throwaway program with one wghygiene finding:
// wg.Add inside the spawned goroutine. The pass reports it regardless
// of package configuration.
const wgAddInside = `package main

import "sync"

func main() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1)
		defer wg.Done()
	}()
	wg.Wait()
}
`

// writeTempModule builds a throwaway module whose main.go is src.
// hoiho's zero-alloc roots do not exist there, so every run over it
// also reports one "roots" finding per root.
func writeTempModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":  "module tmpmod\n\ngo 1.22\n",
		"main.go": src,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runJSON runs hoiholint -json over dir and returns the exit code and
// the decoded findings.
func runJSON(t *testing.T, dir string) (int, []analysis.Diagnostic) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.json")
	stdout, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	code := run([]string{"-json", "-C", dir}, stdout, devnull)
	stdout.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, data)
	}
	return code, diags
}

// countChecks tallies findings by check name.
func countChecks(diags []analysis.Diagnostic) map[string]int {
	n := make(map[string]int)
	for _, d := range diags {
		n[d.Check]++
	}
	return n
}

func TestExitNonzeroOnFindings(t *testing.T) {
	dir := writeTempModule(t, wgAddInside)
	stdout, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	if code := run([]string{"-C", dir}, stdout, os.Stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
}

func TestJSONOutput(t *testing.T) {
	code, diags := runJSON(t, writeTempModule(t, wgAddInside))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	roots := len(analysis.Default().ZeroAllocRoots)
	if got := countChecks(diags); len(diags) != 1+roots || got["wghygiene"] != 1 || got["roots"] != roots {
		t.Fatalf("diags = %+v, want one wghygiene finding and %d roots findings", diags, roots)
	}
}

func TestLoadErrorExitCode(t *testing.T) {
	dir := t.TempDir() // no go.mod anywhere under a temp root
	stdout, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := run([]string{"-C", dir}, stdout, devnull); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestCheckRootsUnresolved: hoiho's zero-alloc roots do not exist in
// a throwaway module with nothing else wrong, so the run fails with one
// "roots" finding per root instead of silently disabling hotalloc.
func TestCheckRootsUnresolved(t *testing.T) {
	code, diags := runJSON(t, writeTempModule(t, "package main\n\nfunc main() {}\n"))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	roots := len(analysis.Default().ZeroAllocRoots)
	if got := countChecks(diags); len(diags) != roots || got["roots"] != roots {
		t.Fatalf("diags = %+v, want %d roots findings", diags, roots)
	}
}

// TestCheckRootsResolveOnModule: every configured zero-alloc root
// resolves against the real module.
func TestCheckRootsResolveOnModule(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.LoadModule(root, analysis.Default())
	if err != nil {
		t.Fatal(err)
	}
	if missing := prog.UnresolvedRoots(); len(missing) > 0 {
		t.Fatalf("unresolved analysis roots: %v", missing)
	}
}
