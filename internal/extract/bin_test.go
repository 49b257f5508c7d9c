package extract

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/corpusbin"
)

// hbcBytes serializes a corpus to the HBC binary form in memory.
func hbcBytes(t testing.TB, c *Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadSniffsHBC proves Load decides by content alone: the HBC form
// of a corpus loads to the same fingerprint and the same extraction
// results as the corpus it was saved from, and the JSON form of the
// same corpus is refused with the hint that names the loadable form.
func TestLoadSniffsHBC(t *testing.T) {
	ncs := syntheticNCs(t, 64)
	orig := New(ncs)

	var jsonBuf bytes.Buffer
	if err := orig.Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	hbc := hbcBytes(t, orig)
	if !corpusbin.IsHBC(hbc) {
		t.Fatal("SaveBinary output does not start with the HBC magic")
	}
	if corpusbin.IsHBC(jsonBuf.Bytes()) {
		t.Fatal("JSON output sniffs as HBC")
	}

	if _, err := Load(bytes.NewReader(jsonBuf.Bytes())); err == nil || !strings.Contains(err.Error(), "hoiho -save") {
		t.Fatalf("load json: err %v, want a refusal naming `hoiho -save`", err)
	}
	fromHBC, err := Load(bytes.NewReader(hbc))
	if err != nil {
		t.Fatalf("load hbc: %v", err)
	}
	if a, b := orig.FingerprintString(), fromHBC.FingerprintString(); a != b {
		t.Fatalf("fingerprint changed across save/load: %s -> %s", a, b)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		host := randomHost(rng, ncs)
		ro, oko := orig.Extract(context.Background(), host)
		rh, okh := fromHBC.Extract(context.Background(), host)
		if oko != okh || ro != rh {
			t.Fatalf("host %q: saved-from (%+v,%v) vs hbc (%+v,%v)", host, ro, oko, rh, okh)
		}
	}
}

// TestHBCJSONSaveByteIdentity is the oracle property end to end through
// the extract API: JSON -> corpus -> HBC -> corpus -> JSON must be
// byte-identical.
func TestHBCJSONSaveByteIdentity(t *testing.T) {
	orig := New(syntheticNCs(t, 32))
	var before bytes.Buffer
	if err := orig.Save(&before); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(hbcBytes(t, orig)))
	if err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := loaded.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("JSON through HBC not byte-identical:\n%s\nvs\n%s", before.Bytes(), after.Bytes())
	}
}

// TestHBCLoadOptions proves load-time options apply to a loaded corpus
// exactly as to New: class filtering drops conventions, and the
// stdlib-matcher fallback still answers identically.
func TestHBCLoadOptions(t *testing.T) {
	ncs := syntheticNCs(t, 48)
	hbc := hbcBytes(t, New(ncs))

	usable, err := Load(bytes.NewReader(hbc), UsableOnly())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range usable.Suffixes() {
		cv, ok := usable.Conventions(s)
		if !ok {
			t.Fatalf("suffix %s not indexed", s)
		}
		if cv.Class() < core.Promising {
			t.Fatalf("UsableOnly kept %s (class %v)", s, cv.Class())
		}
	}
	wantUsable := 0
	for _, nc := range ncs {
		if nc.Class >= core.Promising {
			wantUsable++
		}
	}
	if got := usable.Len(); got != wantUsable {
		t.Fatalf("UsableOnly kept %d conventions, want %d", got, wantUsable)
	}

	rng := rand.New(rand.NewSource(11))
	compiled, err := Load(bytes.NewReader(hbc))
	if err != nil {
		t.Fatal(err)
	}
	stdlib := newRegexpOracle(compiled)
	for i := 0; i < 1000; i++ {
		host := randomHost(rng, ncs)
		rc, okc := compiled.Extract(context.Background(), host)
		rs, oks := stdlib.Extract(host)
		if okc != oks || rc != rs {
			t.Fatalf("host %q: compiled (%+v,%v) vs stdlib matcher (%+v,%v)", host, rc, okc, rs, oks)
		}
	}
}

// TestSaveFileAlwaysWritesHBC proves SaveFile writes the HBC binary
// form whatever the path's extension, and that LoadFile reads it back.
func TestSaveFileAlwaysWritesHBC(t *testing.T) {
	dir := t.TempDir()
	orig := New(syntheticNCs(t, 16))
	for _, name := range []string{"corpus.hbc", "corpus.json", "corpus.dat"} {
		path := filepath.Join(dir, name)
		if err := orig.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !corpusbin.IsHBC(data) {
			t.Fatalf("SaveFile(%s) wrote %.8q, want the HBC magic", name, data)
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		if a, b := loaded.FingerprintString(), orig.FingerprintString(); a != b {
			t.Fatalf("%s: fingerprint %s, want %s", name, a, b)
		}
	}
}

// TestHBCLoadIsPreArmed proves a binary load serves without compiling:
// the corpus extracts correctly immediately, concurrently, under -race.
func TestHBCLoadIsPreArmed(t *testing.T) {
	ncs := syntheticNCs(t, 32)
	loaded, err := Load(bytes.NewReader(hbcBytes(t, New(ncs))))
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]string, 0, 512)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 512; i++ {
		hosts = append(hosts, randomHost(rng, ncs))
	}
	want := make([]Result, len(hosts))
	for i, h := range hosts {
		want[i], _ = loaded.Extract(context.Background(), h)
	}
	got, err := loaded.ExtractBatch(context.Background(), hosts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hosts {
		if got[i] != want[i] {
			t.Fatalf("host %q: batch %+v vs serial %+v", hosts[i], got[i], want[i])
		}
	}
}

// TestLoadRejectsCorruptHBC proves the extract layer surfaces corpusbin's
// fail-closed errors.
func TestLoadRejectsCorruptHBC(t *testing.T) {
	data := hbcBytes(t, New(syntheticNCs(t, 8)))
	data[len(data)-1] ^= 0x40
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt HBC loaded successfully")
	}
	if _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated HBC loaded successfully")
	}
}

// TestRefusesV1: a corpus and a delta a version 1 encoder wrote (the
// corpusbin package's fixtures, with their compiled-program tables)
// are refused by Load and ApplyDelta with an error that names the
// version and the command that writes a current corpus.
func TestRefusesV1(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("..", "corpusbin", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted version 1 bytes", what)
		}
		for _, want := range []string{"version 1", "hoiho -save x.hbc"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", what, err, want)
			}
		}
	}
	_, err := Load(bytes.NewReader(read("v1.hbc")))
	check("Load", err)
	_, _, err = ApplyDelta(New(syntheticNCs(t, 8)), read("v1.hbd"))
	check("ApplyDelta", err)
}
