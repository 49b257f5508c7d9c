package serve

// Interop tests for the serve error taxonomy: every classification the
// handlers and the daemon's main make must work through errors.Is/As on
// wrapped chains — never by string matching — and a blown deadline
// (context.DeadlineExceeded) must stay distinguishable from saturation
// and from a poisoned corpus file.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"hoiho/internal/core"
)

func TestReloadErrorUnwrap(t *testing.T) {
	inner := errors.New("extract: load: corpus contains no conventions")
	err := error(&ReloadError{Path: "/tmp/ncs.json", Err: inner})
	// Wrapped once more, the way the daemon's main logs it.
	wrapped := fmt.Errorf("boot: %w", err)

	var re *ReloadError
	if !errors.As(wrapped, &re) || re.Path != "/tmp/ncs.json" {
		t.Fatalf("errors.As through a wrap failed: %v", wrapped)
	}
	if !errors.Is(wrapped, inner) {
		t.Error("ReloadError does not unwrap to the load failure")
	}

	// A reload that died on the request deadline is classifiable as such.
	dead := &ReloadError{Path: "x", Err: fmt.Errorf("read: %w", context.DeadlineExceeded)}
	if !errors.Is(dead, context.DeadlineExceeded) {
		t.Error("deadline-caused ReloadError is not errors.Is(DeadlineExceeded)")
	}
}

func TestShedClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{ErrQueueFull, true},
		{ErrAdmissionTimeout, true},
		{ErrDraining, true},
		{fmt.Errorf("admission: %w", ErrQueueFull), true},
		{context.DeadlineExceeded, false},
		{context.Canceled, false},
		{ErrNoCorpus, false},
		{errors.New("other"), false},
	} {
		if got := shed(tc.err); got != tc.want {
			t.Errorf("shed(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		err        error
		code       int
		retryAfter bool
	}{
		{ErrQueueFull, http.StatusTooManyRequests, true},
		{ErrAdmissionTimeout, http.StatusTooManyRequests, true},
		{fmt.Errorf("gate: %w", ErrQueueFull), http.StatusTooManyRequests, true},
		{ErrDraining, http.StatusServiceUnavailable, true},
		{ErrNoCorpus, http.StatusServiceUnavailable, true},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{fmt.Errorf("batch: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, false},
		{errors.New("boom"), http.StatusInternalServerError, false},
	} {
		w := httptest.NewRecorder()
		httpError(w, tc.err, 2*time.Second)
		if w.Code != tc.code {
			t.Errorf("httpError(%v) = %d, want %d", tc.err, w.Code, tc.code)
		}
		if got := w.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("httpError(%v) Retry-After present = %v, want %v", tc.err, got, tc.retryAfter)
		}
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	// The hint is jittered: base rounds the duration up to at least one
	// second, and the emitted value spreads across [base, 2*base].
	for _, tc := range []struct {
		d    time.Duration
		base int
	}{{0, 1}, {50 * time.Millisecond, 1}, {time.Second, 1}, {2500 * time.Millisecond, 3}} {
		got, err := strconv.Atoi(RetryAfter(tc.d))
		if err != nil {
			t.Fatalf("RetryAfter(%v) is not an integer", tc.d)
		}
		if got < tc.base || got > 2*tc.base {
			t.Errorf("RetryAfter(%v) = %d, want within [%d, %d]", tc.d, got, tc.base, 2*tc.base)
		}
	}
}

// TestSuffixErrorInterop pins the cross-package contract the daemon's
// operators rely on: a *core.SuffixError carrying a deadline unwraps to
// context.DeadlineExceeded, while the serve taxonomy's shed errors never
// do — so "the suffix blew its budget" and "the service is saturated"
// cannot be conflated by an errors.Is dispatch.
func TestSuffixErrorInterop(t *testing.T) {
	timedOut := error(&core.SuffixError{Suffix: "example.net", Err: context.DeadlineExceeded})
	if !errors.Is(timedOut, context.DeadlineExceeded) {
		t.Error("SuffixError{DeadlineExceeded} is not errors.Is(DeadlineExceeded)")
	}
	var se *core.SuffixError
	if !errors.As(fmt.Errorf("learn: %w", timedOut), &se) || se.Suffix != "example.net" {
		t.Error("errors.As lost the SuffixError through a wrap")
	}
	for _, shedErr := range []error{ErrQueueFull, ErrAdmissionTimeout, ErrDraining} {
		if errors.Is(shedErr, context.DeadlineExceeded) {
			t.Errorf("%v must not classify as DeadlineExceeded", shedErr)
		}
		if errors.As(shedErr, &se) {
			t.Errorf("%v must not classify as a SuffixError", shedErr)
		}
	}
}
