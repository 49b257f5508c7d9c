package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"unsafe"

	"hoiho/internal/extract"
)

// ErrBodyTooLarge reports a request body longer than its endpoint's
// byte cap. Each endpoint answers it with its own status and message.
var ErrBodyTooLarge = errors.New("serve: request body exceeds its byte cap")

// bodyStartBytes bounds the buffer ReadBody allocates before a byte
// of the body has arrived. A 1000-host batch (about 40 KB) still reads
// in one allocation, and a client that declares the cap and sends
// nothing holds no more than this per connection.
const bodyStartBytes = 64 << 10

// ReadBody reads r's body whole into buf's storage and returns it,
// failing with ErrBodyTooLarge when the body is longer than limit
// bytes. A declared length over limit fails before any byte is read.
// Otherwise the read starts in buf, or in a fresh buffer of the
// declared length capped at bodyStartBytes, and grows the way
// io.ReadAll grows as bytes arrive: up to the declared length, or for a
// body of unknown length until it ends or passes limit. Every endpoint
// of the node and the router that takes a whole body reads it here.
func ReadBody(r *http.Request, limit int64, buf []byte) ([]byte, error) {
	declared := r.ContentLength >= 0
	want := limit + 1
	if declared {
		if r.ContentLength > limit {
			return nil, ErrBodyTooLarge
		}
		want = r.ContentLength
	}
	if start := min(want, bodyStartBytes); int64(cap(buf)) < start {
		buf = make([]byte, 0, start)
	}
	buf = buf[:0]
	for int64(len(buf)) < want {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := buf[len(buf):cap(buf)]
		if left := want - int64(len(buf)); int64(len(room)) > left {
			room = room[:left]
		}
		n, err := r.Body.Read(room)
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if declared && int64(len(buf)) < want {
				return nil, io.ErrUnexpectedEOF
			}
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if int64(len(buf)) > limit {
		return nil, ErrBodyTooLarge
	}
	return buf, nil
}

// batchScratch is one batch request's working memory: the body, the
// hostnames cut from it, their results and the answer buffer. Scratches
// are pooled, so a batch allocates nothing once the pool is warm; the
// hostnames point into the pooled body, so every string cut from it
// must be dead before the scratch goes back (see release).
type batchScratch struct {
	body    []byte
	hosts   []string
	results []extract.Result
	answer  []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// A scratch an outsized batch grew past these bounds is dropped instead
// of pooled, so the pool never pins megabytes for a rare big request.
// A 1000-host batch is about 40 KB of body and 1000 hosts.
const (
	scratchKeepBytes = 1 << 20
	scratchKeepHosts = 1 << 14
)

// release clears sc and returns it to the pool, or drops it when an
// outsized batch grew it. Results name their NC's suffix, a string of
// the corpus, so they are cleared lest the pool pin a retired corpus.
func (sc *batchScratch) release() {
	if cap(sc.body) > scratchKeepBytes || cap(sc.answer) > 2*answerBufBytes || cap(sc.hosts) > scratchKeepHosts {
		return
	}
	clear(sc.results)
	sc.results = sc.results[:0]
	sc.hosts = sc.hosts[:0]
	batchScratchPool.Put(sc)
}

// readHosts reads a batch body into sc and cuts it into hostnames: one
// per line, blank lines skipped, surrounding space trimmed, the body
// bounded by maxBytes so a hostile client cannot buffer the daemon into
// an OOM. The body is read whole, so an oversized or empty batch is
// refused before any answer byte is written. The hostnames are
// substrings of sc's body, not copies of it.
func (sc *batchScratch) readHosts(r *http.Request, maxBytes int64) ([]string, error) {
	body, err := ReadBody(r, maxBytes, sc.body)
	if errors.Is(err, ErrBodyTooLarge) {
		return nil, fmt.Errorf("serve: batch body exceeds %d-byte cap", maxBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading batch body: %w", err)
	}
	sc.body = body
	hosts := sc.hosts[:0]
	if n := bytes.Count(body, []byte{'\n'}) + 1; cap(hosts) < n {
		hosts = make([]string, 0, n)
	}
	var text string
	if len(body) > 0 {
		// The body is not written again until the scratch is reused,
		// and release runs only after the answer is written.
		text = unsafe.String(&body[0], len(body))
	}
	for rest := text; rest != ""; {
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
	sc.hosts = hosts
	if len(hosts) == 0 {
		return nil, fmt.Errorf("serve: batch body contains no hostnames")
	}
	return hosts, nil
}
