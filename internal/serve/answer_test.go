package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hoiho/internal/allocbound"
	"hoiho/internal/asn"
	"hoiho/internal/core"
	"hoiho/internal/extract"
)

// extractResponse is the oracle for appendAnswer: the extraction answer
// as a struct, which json.Marshal renders the way the node must.
type extractResponse struct {
	Hostname string `json:"hostname"`
	Found    bool   `json:"found"`
	ASN      uint32 `json:"asn,omitempty"`
	Suffix   string `json:"suffix,omitempty"`
	Class    string `json:"class,omitempty"`
	Digits   string `json:"digits,omitempty"`
}

func toResponse(host string, m extract.Result) extractResponse {
	if !m.OK {
		return extractResponse{Hostname: host}
	}
	return extractResponse{
		Hostname: host,
		Found:    true,
		ASN:      uint32(m.ASN),
		Suffix:   m.Suffix,
		Class:    m.Class.String(),
		Digits:   m.Digits,
	}
}

// decodeAnswer decodes a single-extraction reply body.
func decodeAnswer(t testing.TB, w *httptest.ResponseRecorder) extractResponse {
	t.Helper()
	var a extractResponse
	if err := json.Unmarshal(w.Body.Bytes(), &a); err != nil {
		t.Fatalf("answer %q does not decode: %v", w.Body.String(), err)
	}
	return a
}

// FuzzAnswerEncoding: appendAnswer is byte-identical to json.Marshal of
// the oracle struct for any strings, any ASN and every class, hit or
// miss — including everything encoding/json escapes.
func FuzzAnswerEncoding(f *testing.F) {
	for _, seed := range []struct {
		host, suffix, digits string
		asn                  uint32
		ok                   bool
	}{
		{"as7018-pod42.serve3.net", "serve3.net", "7018", 7018, true},
		{"lo0.rt1.serve3.net", "", "", 0, false},
		{`a"b\c.net`, `x"y.net`, `1\2`, 12, true},
		{"tab\there\x00\x1f.net", "nl\n.net", "\x7f", 1, true},
		{"<script>&amp;.net", "a<b>c&d.net", "&1", 4294967295, true},
		{"bad\xff\xfeutf8.net", "\xc3\x28.net", "\xed\xa0\x80", 3, true},
		{"ls ps .net", " .net", " ", 5, true},
		{"empty-suffix.net", "", "64500", 64500, true},
		{"empty-digits.net", "digits.net", "", 64500, true},
		{"as0-pod1.serve0.net", "serve0.net", "0", 0, true},
		{"", "", "", 0, false},
		{"ümlaut.example", "example", "٣", 3, true},
	} {
		f.Add(seed.host, seed.suffix, seed.digits, seed.asn, seed.ok)
	}
	f.Fuzz(func(t *testing.T, host, suffix, digits string, n uint32, ok bool) {
		for _, class := range []core.Classification{core.Poor, core.Promising, core.Good, core.Good + 1} {
			r := extract.Result{Hostname: host, Suffix: suffix, Digits: digits, ASN: asn.ASN(n), Class: class, OK: ok}
			want, err := json.Marshal(toResponse(host, r))
			if err != nil {
				t.Fatal(err)
			}
			if got := appendAnswer(nil, host, r); !bytes.Equal(got, want) {
				t.Errorf("appendAnswer(%q, %+v)\n got %s\nwant %s", host, r, got, want)
			}
		}
	})
}

// batchHosts is a batch body's hostnames: hits, a governed miss, an
// ungoverned host and, with escapes, hostnames encoding/json must
// escape.
func batchHosts(n int, escapes bool) []string {
	kinds := 4
	if escapes {
		kinds = 5
	}
	hosts := make([]string, n)
	for i := range hosts {
		switch i % kinds {
		case 0, 1:
			hosts[i] = fmt.Sprintf("as%d-pod%d.serve%d.net", 100+i, i, i%nSuffixes)
		case 2:
			hosts[i] = fmt.Sprintf("lo%d.rt1.serve%d.net", i, i%nSuffixes)
		case 3:
			hosts[i] = fmt.Sprintf("host%d.unknown.example.org", i)
		default:
			hosts[i] = fmt.Sprintf("a<%d>&\"ü .serve1.net", i)
		}
	}
	return hosts
}

// TestBatchAnswerMatchesOracle: a whole batch answer, long enough to
// cross several flushes of the write buffer, is byte-identical to
// json.Marshal of the oracle structs for ExtractBatch's results, and
// decodes back to the same values in input order.
func TestBatchAnswerMatchesOracle(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Classes = "all" })
	h := s.Handler()
	for _, n := range []int{1, 5, 2000} {
		hosts := batchHosts(n, true)
		w := doReq(t, h, "POST", "/extract", strings.Join(hosts, "\n")+"\n")
		if w.Code != http.StatusOK {
			t.Fatalf("batch of %d = %d: %s", n, w.Code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		results, err := s.state.Load().corpus.ExtractBatch(context.Background(), hosts)
		if err != nil {
			t.Fatal(err)
		}
		oracle := make([]extractResponse, n)
		found := 0
		for i, r := range results {
			oracle[i] = toResponse(hosts[i], r)
			if r.OK {
				found++
			}
		}
		if n > 1 && (found == 0 || found == n) {
			t.Fatalf("batch of %d has %d hits; the table needs hits and misses", n, found)
		}
		want, err := json.Marshal(oracle)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("batch of %d: answer differs from json.Marshal of the oracle\n got %.300s\nwant %.300s", n, got, want)
		}
		var decoded []extractResponse
		if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
			t.Fatal(err)
		}
		for i := range oracle {
			if decoded[i] != oracle[i] {
				t.Fatalf("batch of %d, answer %d = %+v, want %+v", n, i, decoded[i], oracle[i])
			}
		}
	}
}

// Alloc ceilings for one request through Handler, httptest's request
// and recorder included. Measured on linux/amd64 with Go 1.24: the
// 1000-host batch at 30 allocs (34-36 under -race, where sync.Pool
// drops a quarter of the scratches put back; 59 before the body,
// hosts, results and answer buffer came from a pooled scratch, 96
// before answers were streamed), the lookup at 22 (23 under -race; 28
// before). What is left of the batch's count is the request, the
// recorder's growth and the headers.
const (
	batchRequestAllocs  = 38
	lookupRequestAllocs = 26
)

// skipPoolBoundUnderRace skips a bytes bound that counts on the batch
// scratch pool: under -race, sync.Pool drops a quarter of what is put
// back, and each dropped scratch costs its batch over 150 bytes per
// host.
func skipPoolBoundUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratches at random under -race")
	}
}

// TestBoundBatchAllocs: one 1000-host POST /extract through Handler.
func TestBoundBatchAllocs(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	body := []byte(strings.Join(batchHosts(1000, false), "\n") + "\n")
	allocs := testing.AllocsPerRun(20, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("batch = %d", w.Code)
		}
	})
	if allocs > batchRequestAllocs {
		t.Errorf("1000-host POST /extract = %v allocs, want <= %d", allocs, batchRequestAllocs)
	}
}

// batchBytesPerHost is the heap a 1000-host POST /extract through
// Handler may allocate per host, its request included. Measured on
// linux/amd64 with Go 1.24: 5.8 bytes per host, most of it httptest's
// request; 310 before the pooled scratch.
const batchBytesPerHost = 8

// TestBoundBatchBytesPerHost: a 1000-host batch allocates a few bytes
// per host. Its body, hostnames, results and answer buffer come from a
// pooled scratch, so what is left is the request and its headers.
func TestBoundBatchBytesPerHost(t *testing.T) {
	skipPoolBoundUnderRace(t)
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	const n = 1000
	body := []byte(strings.Join(batchHosts(n, false), "\n") + "\n")
	w := allocbound.NewDiscardWriter()
	per := allocbound.BytesPerRun(50, func() {
		w.Code = 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("batch = %d", w.Code)
		}
	}) / n
	t.Logf("%.1f bytes per host", per)
	if per > batchBytesPerHost {
		t.Errorf("1000-host POST /extract = %.1f bytes per host, want <= %d", per, batchBytesPerHost)
	}
}

// TestBoundLookupAllocs: one GET /extract through Handler.
func TestBoundLookupAllocs(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/extract?host=as7018-pod42.serve3.net", nil)
	allocs := testing.AllocsPerRun(100, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("lookup = %d", w.Code)
		}
	})
	if allocs > lookupRequestAllocs {
		t.Errorf("GET /extract = %v allocs, want <= %d", allocs, lookupRequestAllocs)
	}
}
