package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"shmd/internal/tenant"
	"shmd/internal/wire"
)

// TestFailureParityAcrossTransports pins the one classify table: each
// dispatch failure answers with the same code over HTTP and SHMDWIRE,
// and either both replies carry a retry hint or neither does.
func TestFailureParityAcrossTransports(t *testing.T) {
	srv := newTestServer(t, Config{JitterSeed: 1})
	defer srv.Close()
	for _, tc := range []struct {
		name string
		err  error
		code int
		hint bool
	}{
		{"deadline", context.DeadlineExceeded, http.StatusServiceUnavailable, true},
		{"gate queue full", tenant.ErrQueueFull, http.StatusTooManyRequests, true},
		{"pool closed", ErrPoolClosed, http.StatusServiceUnavailable, false},
		{"acquire", &AcquireError{Cause: context.Canceled}, http.StatusServiceUnavailable, true},
		{"internal", errors.New("kernel fault"), http.StatusInternalServerError, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.fail(rec, tc.err)
			httpHint := rec.Header().Get("Retry-After") != ""

			// An extended (v1.1) peer, which reads the RetryAfterSec tail.
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			wc := &wireConn{c: wire.NewConn(server, 0)}
			wc.extended.Store(true)
			go srv.writeWireError(wc, 7, srv.classify(tc.err))
			f, err := wire.NewConn(client, 0).ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			e, err := wire.DecodeErrorFrame(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			wireHint := e.RetryAfterSec > 0

			if rec.Code != int(e.Code) || httpHint != wireHint {
				t.Errorf("HTTP %d hint=%v, wire %d hint=%v: transports disagree", rec.Code, httpHint, e.Code, wireHint)
			}
			if rec.Code != tc.code || httpHint != tc.hint {
				t.Errorf("HTTP %d hint=%v, want %d hint=%v", rec.Code, httpHint, tc.code, tc.hint)
			}
		})
	}
}
