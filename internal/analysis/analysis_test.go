package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureConfig scopes the analyzers to the fixture packages under
// testdata/src the way Default scopes them to hoiho's packages.
func fixtureConfig() Config {
	return Config{
		DetPkgs:        []string{"fix/detmapfix", "fix/annotfix"},
		PanicPkgs:      []string{"fix/panicfix"},
		CtxPkgs:        []string{"fix/ctxflowfix"},
		ZeroAllocRoots: []string{"fix/hotallocfix.ServeHot"},
		LockPkgs:       []string{"fix/lockorderfix"},
		ErrPkgs:        []string{"fix/errwrapfix", "fix/annotfix"},
		GoroPkgs:       []string{"fix/gorofix"},
	}
}

var fixturePkgs = []string{
	"detmapfix", "wgfix", "panicfix", "ctxflowfix",
	"hotallocfix", "lockorderfix", "errwrapfix", "gorofix", "annotfix",
}

// want is one "// want `re`" expectation parsed from a fixture.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants parses want expectations from every fixture comment. A
// comment may carry several expectations: want `re1` `re2`. Both
// backquoted and double-quoted regexes are accepted.
func collectWants(t *testing.T, prog *Program) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					i := strings.Index(text, "want ")
					if i < 0 || (i+5 >= len(text)) {
						continue
					}
					rest := strings.TrimSpace(text[i+5:])
					if len(rest) == 0 || (rest[0] != '`' && rest[0] != '"') {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for len(rest) > 0 && (rest[0] == '`' || rest[0] == '"') {
						q := rest[0]
						end := strings.IndexByte(rest[1:], q)
						if end < 0 {
							t.Fatalf("%s: unterminated want expectation %q", pos, rest)
						}
						expr := rest[1 : 1+end]
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
						rest = strings.TrimSpace(rest[2+end:])
					}
				}
			}
		}
	}
	return wants
}

// TestFixtures runs all analyzers over the fixture tree and requires an
// exact match between diagnostics and // want expectations: every want
// must be hit, and every diagnostic must be wanted.
func TestFixtures(t *testing.T) {
	prog, err := LoadDirs(filepath.Join("testdata", "src"), "fix", fixturePkgs, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(Analyzers())
	if len(diags) == 0 {
		t.Fatal("no diagnostics on fixtures; the analyzers are not firing")
	}
	wants := collectWants(t, prog)

	for _, d := range diags {
		hit := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestFixtureDiagnosticsNonzero pins the contract the CLI relies on:
// fixtures produce findings, and each carries a position, a check
// name, and a suppression suggestion or annotation message.
func TestFixtureDiagnosticsNonzero(t *testing.T) {
	prog, err := LoadDirs(filepath.Join("testdata", "src"), "fix", fixturePkgs, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(Analyzers())
	checks := make(map[string]int)
	for _, d := range diags {
		checks[d.Check]++
		if d.Pos.Filename == "" || d.Pos.Line == 0 {
			t.Errorf("diagnostic without position: %+v", d)
		}
		if d.Check != "annotation" && d.Suggest == "" {
			t.Errorf("analyzer diagnostic without suppression suggestion: %s", d)
		}
	}
	for _, a := range Analyzers() {
		if checks[a.Name] == 0 {
			t.Errorf("analyzer %s produced no fixture diagnostics", a.Name)
		}
	}
	if checks["annotation"] == 0 {
		t.Error("annotation grammar diagnostics missing")
	}
}

// TestDiagnosticsSorted verifies the driver's position ordering, which
// golden CI logs depend on.
func TestDiagnosticsSorted(t *testing.T) {
	prog, err := LoadDirs(filepath.Join("testdata", "src"), "fix", fixturePkgs, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(Analyzers())
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		ka := fmt.Sprintf("%s:%06d:%06d:%s", a.Pos.Filename, a.Pos.Line, a.Pos.Column, a.Check)
		kb := fmt.Sprintf("%s:%06d:%06d:%s", b.Pos.Filename, b.Pos.Line, b.Pos.Column, b.Check)
		if ka > kb {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}
