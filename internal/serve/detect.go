package serve

// The detect core shared by the HTTP /v1/detect handler and the
// SHMDWIRE DETECT and STREAM handlers. Each handler keeps only its
// codec and calls, in order: admit (tenant QoS, then the flat queue),
// detect (deadline, batcher, decision metrics, latency), and on any
// failure classify, whose one table decides the code, message, and
// retry hint both transports render.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"shmd/internal/tenant"
)

// ticket is an admitted request: the tenant admission it holds (nil
// with tenancy off), its accounting identity and class, and one
// admission-queue token. Return it with release.
type ticket struct {
	adm      *tenant.Admission
	tenantID string
	class    tenant.Class
}

// admitError is a refused admission: by the tenant registry (unknown
// tenant, quota, concurrency, or load shaping), or by the full flat
// queue after the tenant, if any, was admitted.
type admitError struct {
	// adm is the tenant decision (nil with tenancy off).
	adm   *tenant.Admission
	queue bool
}

func (e *admitError) Error() string {
	switch {
	case e.queue:
		return "detection queue full"
	case e.adm.Outcome == tenant.Unknown:
		return fmt.Sprintf("unknown tenant %q", e.adm.Tenant)
	default:
		return fmt.Sprintf("tenant %s over %s limit", e.adm.Tenant, e.adm.Outcome)
	}
}

// errClientGone marks a dispatch abandoned because the caller's
// transport (HTTP request or SHMDWIRE connection) went away.
var errClientGone = errors.New("client went away")

// admissionLoad is the load signal the shaping rules consume: flat
// admission-queue occupancy in [0, 1].
func (s *Server) admissionLoad() float64 {
	return float64(len(s.queue)) / float64(cap(s.queue))
}

// admit runs admission for a request claiming tenant identity id:
// tenant QoS first — quota, concurrency, and load shaping decide
// whether this tenant may submit at all — then the flat queue decides
// whether the server has room, so overload costs one channel probe.
func (s *Server) admit(id string) (ticket, error) {
	var tk ticket
	if s.tenants != nil {
		adm := s.tenants.Admit(id, s.admissionLoad())
		if !adm.OK() {
			return tk, &admitError{adm: adm}
		}
		tk = ticket{adm: adm, tenantID: adm.Tenant, class: adm.Class}
		s.metrics.TenantAccepted(adm.Tenant, adm.Class.String())
	}
	select {
	case s.queue <- struct{}{}:
	default:
		if tk.adm != nil {
			tk.adm.Release()
		}
		return tk, &admitError{adm: tk.adm, queue: true}
	}
	// Holding a queue token guarantees inflight capacity (same sizes).
	s.inflight <- struct{}{}
	return tk, nil
}

// release returns an admitted request's queue token and tenant slot.
func (s *Server) release(tk ticket) {
	<-s.inflight
	<-s.queue
	if tk.adm != nil {
		tk.adm.Release()
	}
}

// detect runs an admitted request's programs through the batcher
// under its deadline (0 = unbounded) and records the winner's hedge,
// decision, and latency metrics. ctx is the transport's context; a
// failure after it ended is errClientGone.
func (s *Server) detect(ctx context.Context, tk ticket, programs []DecodedProgram, deadline time.Duration, start time.Time) (batchOutcome, error) {
	dctx := ctx
	if deadline > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	out, err := s.batcher.dispatch(dctx, tk.class, tk.tenantID, programs)
	if err != nil {
		if ctx.Err() != nil {
			return out, errClientGone
		}
		return out, err
	}
	if out.hedge {
		s.metrics.HedgeWin()
	}
	for _, res := range out.results {
		s.metrics.Decision(res.Malware, res.Unprotected)
	}
	s.metrics.Observe(time.Since(start))
	return out, nil
}

// failure is a refused or failed request as both transports render
// it: code is the HTTP status and, with the same value, the SHMDWIRE
// ERROR code; hint > 0 is a jittered backoff in seconds (Retry-After
// header, or the ERROR frame's RetryAfterSec tail and message text).
type failure struct {
	code int
	msg  string
	hint int
}

// classify maps an admission or dispatch failure to its reply and
// counts it in the matching shed metrics. Sheds the server chose —
// queue or quota pressure, an expired deadline, a checkout that ran out
// of time — carry a retry hint; an unknown tenant, a closed pool, and
// internal faults do not. A client that went away is recorded under
// the de-facto 499 and never answered.
func (s *Server) classify(err error) failure {
	m := s.metrics
	f := failure{code: http.StatusServiceUnavailable, msg: err.Error()}
	var ae *admitError
	switch {
	case errors.As(err, &ae):
		reason := "queue"
		if ae.queue {
			m.QueueReject()
		} else {
			reason = ae.adm.Outcome.String()
		}
		if ae.adm != nil {
			m.TenantShed(ae.adm.Tenant, ae.adm.Class.String(), reason)
		}
		if !ae.queue && ae.adm.Outcome == tenant.Unknown {
			return failure{code: http.StatusForbidden, msg: f.msg}
		}
		f.code = http.StatusTooManyRequests
	case errors.Is(err, errClientGone):
		return failure{code: statusClientClosedRequest}
	case errors.Is(err, context.DeadlineExceeded):
		m.DeadlineExpired()
		f.msg = "detection deadline exceeded"
	case errors.Is(err, tenant.ErrQueueFull):
		m.QueueReject()
		f.code = http.StatusTooManyRequests
	case errors.Is(err, ErrPoolClosed):
		// The server is going away: retrying here will not help.
		return f
	case errors.As(err, new(*AcquireError)):
		// The checkout ran out of time: a shed like the deadline.
	default:
		return failure{code: http.StatusInternalServerError, msg: f.msg}
	}
	f.hint = s.jitter.RetryAfter()
	return f
}

// statusClientClosedRequest is the de-facto code (nginx's 499) used
// only as a metrics label for requests abandoned while queued.
const statusClientClosedRequest = 499
