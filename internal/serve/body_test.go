package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"hoiho/internal/allocbound"
)

// oracleHostLines is the batch parser the daemon had before bodies were
// read at their size into pooled storage: read the body whole through
// io.ReadAll, bounded by maxBytes, and split a copy of it into lines.
// FuzzReadHostLines holds readHosts to it.
func oracleHostLines(r *http.Request, maxBytes int64) ([]string, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBytes+1))
	if err != nil {
		return nil, fmt.Errorf("serve: reading batch body: %w", err)
	}
	if int64(len(body)) > maxBytes {
		return nil, fmt.Errorf("serve: batch body exceeds %d-byte cap", maxBytes)
	}
	var hosts []string
	for rest := string(body); rest != ""; {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if h := strings.TrimSpace(line); h != "" {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("serve: batch body contains no hostnames")
	}
	return hosts, nil
}

// trickle is a body of unknown length (as a chunked request's is) that
// hands out at most n bytes per Read.
type trickle struct {
	b []byte
	n int
}

func (t *trickle) Read(p []byte) (int, error) {
	if len(t.b) == 0 {
		return 0, io.EOF
	}
	k := min(len(p), t.n, len(t.b))
	copy(p, t.b[:k])
	t.b = t.b[k:]
	return k, nil
}

// batchRequest is a POST /extract carrying body, with its length
// declared or, when chunk > 0, unknown and read chunk bytes at a time.
func batchRequest(body []byte, chunk int) *http.Request {
	if chunk > 0 {
		return httptest.NewRequest(http.MethodPost, "/extract", &trickle{b: body, n: chunk})
	}
	return httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body))
}

// FuzzReadHostLines: readHosts, on a reused scratch, returns the
// oracle's hostnames, and fails exactly when the oracle fails, for any
// body and cap, with the body's length declared or read in chunks of
// any size.
func FuzzReadHostLines(f *testing.F) {
	f.Add([]byte("as100-pod1.serve0.net\n\nas200-pod2.serve1.net\nunknown.example.org\n"), uint16(1024), uint8(0))
	f.Add([]byte("a.net\r\n  b.net \t\n c.net\u0085\n"), uint16(64), uint8(3))
	f.Add([]byte("\n\n \n"), uint16(8), uint8(1))
	f.Add([]byte(""), uint16(0), uint8(0))
	f.Add([]byte("x"), uint16(0), uint8(0))
	f.Add([]byte("exactly-16-bytes"), uint16(16), uint8(5))
	f.Add([]byte("seventeen-bytes.."), uint16(16), uint8(0))
	f.Add([]byte("bad\xff\xfeutf8.net\nok.net"), uint16(100), uint8(2))
	sc := new(batchScratch)
	f.Fuzz(func(t *testing.T, body []byte, limit uint16, chunk uint8) {
		want, wantErr := oracleHostLines(batchRequest(body, 0), int64(limit))
		for _, c := range []int{0, int(chunk) + 1} {
			got, err := sc.readHosts(batchRequest(body, c), int64(limit))
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("chunk %d, limit %d, body %q: err = %v, oracle err = %v", c, limit, body, err, wantErr)
			}
			if err == nil && !slices.Equal(got, want) {
				t.Fatalf("chunk %d, limit %d, body %q: hosts = %q, oracle %q", c, limit, body, got, want)
			}
		}
	})
}

// unread is a body that fails the test if anything reads it.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("a body whose declared length is over the cap was read")
	return 0, io.EOF
}

// TestReadBodyCaps: a declared length over the cap fails before any
// byte is read; a body of unknown length fails once it passes the cap;
// a body at the cap, declared or not, reads whole.
func TestReadBodyCaps(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/", unread{t})
	r.ContentLength = 11
	if _, err := ReadBody(r, 10, nil); !errors.Is(err, ErrBodyTooLarge) {
		t.Errorf("declared 11 bytes, cap 10: err = %v, want ErrBodyTooLarge", err)
	}
	body := []byte("0123456789")
	if _, err := ReadBody(batchRequest(append(body, 'x'), 3), 10, nil); !errors.Is(err, ErrBodyTooLarge) {
		t.Errorf("11 chunked bytes, cap 10: err = %v, want ErrBodyTooLarge", err)
	}
	for _, chunk := range []int{0, 1, 4, 64} {
		got, err := ReadBody(batchRequest(body, chunk), 10, make([]byte, 0, 2))
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("10 bytes (chunk %d), cap 10 = %q, %v", chunk, got, err)
		}
	}
	r = httptest.NewRequest(http.MethodPost, "/", strings.NewReader("short"))
	r.ContentLength = 8
	if _, err := ReadBody(r, 10, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("declared 8 bytes, sent 5: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// errClientGone is what a stalled client's body read ends with.
var errClientGone = errors.New("client went away")

// stall is a client that declares a body, sends a few bytes of it and
// goes away.
type stall struct{ sent bool }

func (s *stall) Read(p []byte) (int, error) {
	if s.sent {
		return 0, errClientGone
	}
	s.sent = true
	return copy(p, "a.b\n"), nil
}

// TestReadBodyGrowsAsBytesArrive: a client that declares the cap and
// sends a few bytes costs no more than bodyStartBytes, however large
// the cap, and a declared body past that size, read in short pieces,
// still arrives whole.
func TestReadBodyGrowsAsBytesArrive(t *testing.T) {
	const declared = maxRolloutBytes
	r := httptest.NewRequest(http.MethodPost, "/-/rollout/prepare", nil)
	r.ContentLength = declared
	per := allocbound.BytesPerRun(20, func() {
		r.Body = io.NopCloser(&stall{})
		if _, err := ReadBody(r, declared, nil); !errors.Is(err, errClientGone) {
			t.Fatalf("stalled body: err = %v, want %v", err, errClientGone)
		}
	})
	if per > bodyStartBytes+1<<10 {
		t.Errorf("declared %d bytes, sent 4: %.0f bytes allocated, want <= %d", declared, per, bodyStartBytes+1<<10)
	}
	body := bytes.Repeat([]byte("as1-pod2.serve0.net\n"), 5*bodyStartBytes/20)
	r = batchRequest(body, 1000)
	r.ContentLength = int64(len(body))
	if got, err := ReadBody(r, declared, nil); err != nil || !bytes.Equal(got, body) {
		t.Errorf("declared %d bytes, read 1000 at a time: %d bytes, %v", len(body), len(got), err)
	}
}

// TestPrepareDeclaredOverCap: a rollout prepare whose declared length
// is over the cap is refused with 413 before its body is read or
// anything is staged.
func TestPrepareDeclaredOverCap(t *testing.T) {
	s, _ := newTestServer(t, nil)
	r := httptest.NewRequest(http.MethodPost, "/-/rollout/prepare?epoch=1", unread{t})
	r.ContentLength = maxRolloutBytes + 1
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "exceeds byte cap") {
		t.Errorf("prepare declaring %d bytes = %d %q, want 413", r.ContentLength, w.Code, w.Body.String())
	}
	if st := s.StatusNow(); st.Prepares != 0 || st.PreparedFingerprint != "" {
		t.Errorf("refused prepare left prepares=%d prepared=%q", st.Prepares, st.PreparedFingerprint)
	}
}

// oracleAnswer is what a batch answer must decode to: Corpus.Extract of
// each host.
func oracleAnswer(t testing.TB, s *Server, hosts []string) []extractResponse {
	t.Helper()
	c := s.state.Load().corpus
	want := make([]extractResponse, len(hosts))
	for i, h := range hosts {
		r, _ := c.Extract(context.Background(), h)
		want[i] = toResponse(h, r)
	}
	return want
}

func decodeBatch(t testing.TB, w *httptest.ResponseRecorder) []extractResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body.String())
	}
	var got []extractResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("batch answer does not decode: %v", err)
	}
	return got
}

// TestBatchPooledConcurrentDistinctBodies: concurrent batches of
// different sizes and contents, their lengths declared or not, share
// the scratch pool; every answer is Corpus.Extract of its own hosts. A
// scratch reused while a request still reads it, or hostnames outliving
// their body, shows as another batch's host in an answer (and as a
// race under -race).
func TestBatchPooledConcurrentDistinctBodies(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Classes = "all" })
	h := s.Handler()
	const workers, rounds = 8, 12
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				n := 1 + (g*rounds+i)*137%1500
				hosts := make([]string, n)
				for j := range hosts {
					// Distinct per worker and round, and of varying
					// length, so a leftover byte changes an answer.
					hosts[j] = fmt.Sprintf("as%d-pod%d.serve%d.net", g*1_000_000+i*10_000+j, j%(i+3), j%nSuffixes)
					if j%7 == 3 {
						hosts[j] = fmt.Sprintf("lo%d.%s.unknown.example.org", j, strings.Repeat("x", i))
					}
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, batchRequest([]byte(strings.Join(hosts, "\n")), i%3*97))
				got, want := decodeBatch(t, w), oracleAnswer(t, s, hosts)
				if !slices.Equal(got, want) {
					t.Errorf("worker %d round %d: answer differs from Corpus.Extract", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// failingWriter is a client that goes away mid-answer: writes fail
// once after bytes bytes have gone out.
type failingWriter struct {
	h       http.Header
	written int
	after   int
}

func (w *failingWriter) Header() http.Header { return w.h }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written >= w.after {
		return 0, errors.New("client disconnected")
	}
	w.written += len(p)
	return len(p), nil
}

// TestBatchDisconnectMidAnswer: a client that disconnects after the
// first chunk of a multi-chunk answer stops the encoding there, without
// a panic, and the batches after it, which reuse the pool, answer
// correctly.
func TestBatchDisconnectMidAnswer(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Classes = "all" })
	h := s.Handler()
	big := batchHosts(5000, true)
	for range 3 {
		w := &failingWriter{h: http.Header{}, after: 1}
		h.ServeHTTP(w, batchRequest([]byte(strings.Join(big, "\n")), 0))
		if w.written < answerFlushBytes || w.written > answerBufBytes+4<<10 {
			t.Fatalf("disconnected client got %d bytes, want one chunk of about %d", w.written, answerFlushBytes)
		}
	}
	for _, n := range []int{3000, 10, 1} {
		hosts := batchHosts(n, true)[n/2:]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, batchRequest([]byte(strings.Join(hosts, "\n")), 0))
		if got, want := decodeBatch(t, w), oracleAnswer(t, s, hosts); !slices.Equal(got, want) {
			t.Fatalf("batch of %d after disconnects: answer differs from Corpus.Extract", len(hosts))
		}
	}
	if p := s.StatusNow().Panics; p != 0 {
		t.Errorf("panics = %d after client disconnects", p)
	}
}

// TestBatchChunkedBody: a body with no Content-Length, read in small
// pieces, answers byte for byte as the same body with its length
// declared, and one over the cap is refused.
func TestBatchChunkedBody(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBatchBytes = 64 << 10 })
	h := s.Handler()
	body := []byte(strings.Join(batchHosts(1000, true), "\n") + "\n")
	want := httptest.NewRecorder()
	h.ServeHTTP(want, batchRequest(body, 0))
	for _, chunk := range []int{1, 7, 4096} {
		w := httptest.NewRecorder()
		r := batchRequest(body, chunk)
		if r.ContentLength != -1 {
			t.Fatalf("chunked request declares %d bytes", r.ContentLength)
		}
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("chunk %d: %d, answer differs from the declared-length one", chunk, w.Code)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, batchRequest(bytes.Repeat(body, 3), 4096))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "exceeds 65536-byte cap") {
		t.Errorf("chunked body over the cap = %d %q, want 400", w.Code, w.Body.String())
	}
}

// TestBatchDeclaredOverCap: a batch declaring a length over the cap is
// refused with the cap error before its body is read.
func TestBatchDeclaredOverCap(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBatchBytes = 1 << 10 })
	r := httptest.NewRequest(http.MethodPost, "/extract", unread{t})
	r.ContentLength = 1<<10 + 1
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest || w.Body.String() != "serve: batch body exceeds 1024-byte cap\n" {
		t.Errorf("declared %d bytes over a 1024-byte cap = %d %q, want 400 with the cap error", r.ContentLength, w.Code, w.Body.String())
	}
}

// TestBatchEmptyBody: an empty body, declared or chunked, and one of
// blank lines are refused as batches without hostnames.
func TestBatchEmptyBody(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	for _, tc := range []struct {
		body  string
		chunk int
	}{{"", 0}, {"", 1}, {"\n \n\t\n", 0}, {"\n \n\t\n", 2}} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, batchRequest([]byte(tc.body), tc.chunk))
		if w.Code != http.StatusBadRequest || w.Body.String() != "serve: batch body contains no hostnames\n" {
			t.Errorf("body %q (chunk %d) = %d %q, want 400 without hostnames", tc.body, tc.chunk, w.Code, w.Body.String())
		}
	}
}

// TestBatchOutsizedScratchNotPooled: a batch with more hostnames, or a
// bigger body, than a pooled scratch may keep leaves no scratch of that
// size in the pool.
func TestBatchOutsizedScratchNotPooled(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	manyHosts := []byte(strings.Repeat("a.b\n", scratchKeepHosts+1))
	bigBody := []byte(strings.Repeat("x", scratchKeepBytes) + "\nas1-pod2.serve0.net\n")
	for range 3 {
		for _, body := range [][]byte{manyHosts, bigBody} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, batchRequest(body, 0))
			if w.Code != http.StatusOK {
				t.Fatalf("outsized batch = %d: %.200s", w.Code, w.Body.String())
			}
		}
	}
	for range 16 {
		sc := batchScratchPool.Get().(*batchScratch)
		if cap(sc.body) > scratchKeepBytes || cap(sc.hosts) > scratchKeepHosts || cap(sc.answer) > 2*answerBufBytes {
			t.Fatalf("pool holds an outsized scratch: body %d, hosts %d, answer %d bytes of capacity",
				cap(sc.body), cap(sc.hosts), cap(sc.answer))
		}
	}
}
