// Package allocbound holds what the heap-bytes bound tests share
// (internal/serve, internal/cluster): a ResponseWriter that keeps no
// body, and a bytes counterpart of testing.AllocsPerRun.
package allocbound

import (
	"io"
	"net/http"
	"runtime"
)

// DiscardWriter is a ResponseWriter that keeps no body, so a bytes
// bound counts what a handler allocates and not a recorder's growth.
// Like net/http's own ResponseWriter for a chunked answer, it copies
// what io.Copy hands its ReadFrom through a pooled buffer, so a relay
// into it allocates no copy buffer of its own.
type DiscardWriter struct {
	H    http.Header
	Code int
}

// NewDiscardWriter returns a DiscardWriter with an empty header.
func NewDiscardWriter() *DiscardWriter { return &DiscardWriter{H: http.Header{}} }

func (w *DiscardWriter) Header() http.Header         { return w.H }
func (w *DiscardWriter) WriteHeader(code int)        { w.Code = code }
func (w *DiscardWriter) Write(p []byte) (int, error) { return len(p), nil }

func (w *DiscardWriter) ReadFrom(r io.Reader) (int64, error) {
	return io.Discard.(io.ReaderFrom).ReadFrom(r)
}

// BytesPerRun is testing.AllocsPerRun in bytes: the mean heap bytes
// the process allocates per call of f, after one warm-up call, on one
// P. Goroutines f waits on (an in-process node's, say) are counted too.
func BytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
