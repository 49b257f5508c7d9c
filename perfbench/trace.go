package main

// Span recording for the traced run. Spans are kept in memory and
// written out as JSON when the run ends; nothing is recorded, and no
// wrapper is installed, when tracing is off.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/corpusbin"
)

// span is one timed interval at a layer boundary. Spans of one request
// share RID; rollout phase spans carry none and are linked to their
// epoch by time containment (the coordinator runs one epoch at a time).
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start"` // wall clock, ns since the Unix epoch
	End   int64  `json:"end"`
	RID   string `json:"rid,omitempty"`
	// Bytes and Delta describe a rollout prepare body.
	Bytes int  `json:"bytes,omitempty"`
	Delta bool `json:"delta,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans from many goroutines.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1<<16)} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	return spans, nil
}

// ridOf extracts the benchmark's rid query parameter without parsing
// the whole query.
func ridOf(rawQuery string) string {
	i := strings.Index(rawQuery, "rid=")
	if i < 0 || (i > 0 && rawQuery[i-1] != '&') {
		return ""
	}
	v := rawQuery[i+len("rid="):]
	if j := strings.IndexByte(v, '&'); j >= 0 {
		v = v[:j]
	}
	return v
}

// spanName names a request by its layer and endpoint.
func spanName(layer string, r *http.Request) string {
	switch {
	case r.URL.Path == "/extract" && r.Method == http.MethodGet:
		return layer + ".extract"
	case r.URL.Path == "/extract":
		return layer + ".batch"
	case r.URL.Path == "/-/rollout":
		return layer + ".rollout"
	case strings.HasPrefix(r.URL.Path, "/-/rollout/"):
		return layer + "." + strings.TrimPrefix(r.URL.Path, "/-/rollout/")
	}
	return layer + ".other"
}

// wrap records one span per request served by h. A prepare body is
// read up front so the span can say whether it was an HBD delta and how
// large it was.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := span{Name: spanName(layer, req), RID: ridOf(req.URL.RawQuery)}
		if s.Name == layer+".prepare" {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			s.Bytes, s.Delta = len(body), corpusbin.IsHBD(body)
		}
		s.Start = time.Now().UnixNano()
		h.ServeHTTP(w, req)
		s.End = time.Now().UnixNano()
		r.add(s)
	})
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}
