package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// genInputs produces a consistent artifact set via the itdkgen pipeline's
// library path, exercising the full file-based tool chain.
func genInputs(t *testing.T) (itdkPath, tracesPath, bgpPath, relPath, orgsPath string) {
	t.Helper()
	dir := t.TempDir()
	p := func(n string) string { return filepath.Join(dir, n) }
	// Reuse cmd/itdkgen's output format by generating the same content
	// through its package-level behavior: simplest is to shell the
	// library objects directly, but the text formats are stable, so we
	// write them through the itdkgen-equivalent path in-process.
	itdkPath, tracesPath, bgpPath, relPath, orgsPath = p("itdk.txt"), p("tr.txt"), p("bgp.txt"), p("rel.txt"), p("orgs.txt")
	writeArtifacts(t, itdkPath, tracesPath, bgpPath, relPath, orgsPath)
	return
}

func TestRunWithoutNCs(t *testing.T) {
	itdkPath, tracesPath, bgpPath, relPath, orgsPath := genInputs(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-itdk", itdkPath, "-traces", tracesPath, "-bgp", bgpPath,
		"-rel", relPath, "-orgs", orgsPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "node N") {
		t.Errorf("no annotations printed:\n%.300s", out.String())
	}
}

func TestRunWithNCs(t *testing.T) {
	itdkPath, tracesPath, bgpPath, relPath, orgsPath := genInputs(t)
	// Learn conventions with the hoiho library and feed the corpus in.
	ncsPath := filepath.Join(t.TempDir(), "ncs.hbc")
	writeNCs(t, itdkPath, ncsPath)

	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-itdk", itdkPath, "-traces", tracesPath, "-bgp", bgpPath,
		"-rel", relPath, "-orgs", orgsPath, "-ncs", ncsPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "interfaces with extracted ASNs") {
		t.Errorf("decision summary missing:\n%.300s", text)
	}
}

func TestRunMissingArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-itdk", "x"}, &out); err == nil {
		t.Error("missing -traces/-bgp should error")
	}
	if err := run(context.Background(), []string{"-itdk", "nope", "-traces", "nope", "-bgp", "nope"}, &out); err == nil {
		t.Error("missing files should error")
	}
}

func TestRunBadNCs(t *testing.T) {
	itdkPath, tracesPath, bgpPath, _, _ := genInputs(t)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-itdk", itdkPath, "-traces", tracesPath, "-bgp", bgpPath, "-ncs", bad}, &out)
	if err == nil {
		t.Error("bad NC JSON should error")
	}
	// A well-formed JSON corpus (the `hoiho -json` form) is for reading:
	// -ncs refuses it and names the loadable form.
	ncsJSON := filepath.Join(t.TempDir(), "ncs.json")
	if err := os.WriteFile(ncsJSON, []byte(`[{"suffix":"example.net","regexes":["^as(\\d+)\\.example\\.net$"],"class":"good"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-itdk", itdkPath, "-traces", tracesPath, "-bgp", bgpPath, "-ncs", ncsJSON}, &out)
	if err == nil || !strings.Contains(err.Error(), "hoiho -save") {
		t.Errorf("-ncs with a JSON corpus: err %v, want a refusal naming `hoiho -save`", err)
	}
}
