package route

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"shmd/internal/core"
)

// errBrownout marks a dispatch that found no routable backend: every
// backend is out of the rotation, breaker-open, or already tried. The
// handler maps it to a 503 shed, never a hang.
var errBrownout = errors.New("route: no routable backend")

// proxyResult is one backend's HTTP reply, buffered for relay.
type proxyResult struct {
	status int
	ctype  string
	body   []byte
}

// handleDetect proxies POST /v1/detect onto the fleet.
func (rt *Router) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rt.status(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if rt.draining.Load() {
		rt.metrics.Shed()
		rt.shedHint(w)
		rt.status(w, http.StatusServiceUnavailable, "router draining")
		return
	}
	// Partial brownout: with part of the fleet unroutable, best-effort
	// classes are shed here — cheap, before the body is even read — so
	// the surviving backends' capacity goes to interactive traffic.
	if class := classFor(r.Header.Get("X-Tenant-Class")); rt.shedClass(class) {
		rt.metrics.Shed()
		rt.shedHint(w)
		rt.status(w, http.StatusTooManyRequests,
			fmt.Sprintf("fleet brownout: %s traffic shed", class))
		return
	}
	// The body is buffered whole so it can be re-sent verbatim to a
	// hedge or retry backend; the bound keeps a hostile client from
	// ballooning router memory.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.status(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		rt.status(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}

	out, err := dispatch(r.Context(), rt, false, rt.forwardHTTP(body, r.Header))
	if err != nil {
		rt.failDetect(w, r, err)
		return
	}
	if out.hedged {
		rt.metrics.HedgeWin()
	}
	res := out.res
	w.Header().Set("X-Shmd-Backend", out.backend.name)
	if res.ctype != "" {
		w.Header().Set("Content-Type", res.ctype)
	}
	rt.metrics.Request(res.status)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// failDetect maps a dispatch failure to its HTTP reply.
func (rt *Router) failDetect(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil:
		// Client gone; nobody is listening. Metrics label only.
		rt.metrics.Request(statusClientClosedRequest)
	case errors.Is(err, errBrownout):
		rt.metrics.Shed()
		rt.shedHint(w)
		rt.status(w, http.StatusServiceUnavailable, err.Error())
	default:
		// Every backend tried answered badly; the fleet is reachable but
		// misbehaving. 502 tells the client the router itself is fine.
		rt.shedHint(w)
		rt.status(w, http.StatusBadGateway, err.Error())
	}
}

// statusClientClosedRequest is nginx's de-facto 499, used only as a
// metrics label for requests abandoned mid-dispatch.
const statusClientClosedRequest = 499

// status writes an error reply on the detect path and records it in
// the request counters (observe endpoints write plain http.Error
// instead, keeping scrapes and health probes out of the metric).
func (rt *Router) status(w http.ResponseWriter, code int, msg string) {
	rt.metrics.Request(code)
	http.Error(w, msg, code)
}

// outcome is one attempt's result: the transport's reply, the backend
// that produced it, and whether it came from the hedge.
type outcome[R any] struct {
	res     R
	backend *backend
	hedged  bool
	err     error
}

// dispatch is the one retry/hedge/breaker loop both transports run;
// attempt sends one request to one backend in the transport's own
// codec. Each round makes one (possibly hedged) attempt on backends
// not yet tried, and a failed attempt earns another round after an
// equal-jitter backoff, up to MaxRetries. The tried set persists
// across rounds so a retry always lands on a fresh backend while one
// exists. wireOnly restricts the picks to backends with a SHMDWIRE
// address.
func dispatch[R any](ctx context.Context, rt *Router, wireOnly bool, attempt func(context.Context, *backend) (R, error)) (outcome[R], error) {
	tried := make(map[*backend]bool, len(rt.backends))
	var lastErr error
	for round := 0; ; round++ {
		out, err := race(ctx, rt, wireOnly, tried, attempt)
		if err == nil {
			return out, nil
		}
		if errors.Is(err, errBrownout) {
			if lastErr != nil {
				// Fresh backends ran out mid-retry; report the real
				// failure, not the exhaustion.
				return out, lastErr
			}
			// Nothing was ever routable: a brownout shed, not a failed
			// dispatch.
			return out, err
		}
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		lastErr = err
		if round >= rt.cfg.MaxRetries {
			return out, lastErr
		}
		rt.metrics.Retry()
		rt.cfg.Sleep(rt.jitter.Backoff(rt.cfg.RetryBackoff, rt.cfg.MaxRetryBackoff, round))
	}
}

// race makes one dispatch round: attempt the picked backend and, if
// the reply outlives HedgeAfter, a second one — the first success wins
// and the loser finishes detached (its breaker feedback still lands).
// Every backend used is added to tried.
func race[R any](ctx context.Context, rt *Router, wireOnly bool, tried map[*backend]bool, attempt func(context.Context, *backend) (R, error)) (outcome[R], error) {
	// Buffered for every possible runner so a loser's send never blocks.
	outcomes := make(chan outcome[R], 2)
	launch := func(b *backend, probe, hedged bool) {
		tried[b] = true
		rt.reqWG.Add(1)
		go func() {
			defer rt.reqWG.Done()
			res, err := try(ctx, b, probe, attempt)
			outcomes <- outcome[R]{res: res, backend: b, hedged: hedged, err: err}
		}()
	}
	primary, probe := rt.pick(tried, wireOnly)
	if primary == nil {
		return outcome[R]{}, errBrownout
	}
	launch(primary, probe, false)

	var hedgeC <-chan time.Time
	if rt.cfg.HedgeAfter > 0 {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case out := <-outcomes:
			pending--
			if out.err == nil {
				return out, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			// Hedging spends only capacity that is routable right now;
			// no second backend → the primary simply keeps running.
			if h, hprobe := rt.pick(tried, wireOnly); h != nil {
				rt.metrics.Hedge()
				pending++
				launch(h, hprobe, true)
			}
		case <-ctx.Done():
			return outcome[R]{}, ctx.Err()
		}
	}
	return outcome[R]{}, firstErr
}

// try runs one attempt on b and feeds its outcome to b's breaker and
// counters — the one place either transport resolves a breaker. A
// success (which includes relayed 4xx and 429 replies: the backend is
// alive and reasoning) closes the breaker; a failure is the backend's
// fault unless ctx already ended, in which case the attempt was
// abandoned (client gone) and must not poison the breaker. probe
// means the attempt holds b's half-open probe: an abandoned probe is
// handed back with Release, otherwise the breaker would wedge
// half-open, Allow would refuse forever, and the backend would never
// see traffic again.
func try[R any](ctx context.Context, b *backend, probe bool, attempt func(context.Context, *backend) (R, error)) (R, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Add(1)
	res, err := attempt(ctx, b)
	switch {
	case err == nil:
		b.breaker.Success()
	case ctx.Err() == nil:
		b.failures.Add(1)
		b.breaker.Failure()
	case probe:
		b.breaker.Release()
	}
	return res, err
}

// pick selects the next backend. Half-open probes come first: a ready
// backend whose breaker cooldown has elapsed claims this request as
// its single live probe — exactly as the Supervisor probes a degraded
// slot with a real detection — so a tripped backend re-earns traffic
// even while healthy peers could absorb everything (and at most one
// request per cooldown is risked; a failed probe retries elsewhere).
// Otherwise: power-of-two-choices on in-flight count among ready
// backends with closed breakers. Backends in tried, and with wireOnly
// those without a SHMDWIRE address, are skipped. The second return is
// true when the pick claimed a half-open probe — the attempt MUST then
// run through try, which resolves the breaker. Returns nil when
// nothing is routable (brownout).
func (rt *Router) pick(tried map[*backend]bool, wireOnly bool) (*backend, bool) {
	var avail []*backend
	for _, b := range rt.backends {
		if tried[b] || !b.ready.Load() || (wireOnly && b.wire == nil) {
			continue
		}
		if b.breaker.State() == core.BreakerClosed {
			avail = append(avail, b)
			continue
		}
		// Allow claims the single half-open probe; try closes the
		// breaker, re-opens it with doubled cooldown, or hands the probe
		// back if the attempt is abandoned.
		if b.breaker.Allow() {
			return b, true
		}
	}
	switch len(avail) {
	case 0:
		return nil, false
	case 1:
		return avail[0], false
	case 2:
		if avail[1].inflight.Load() < avail[0].inflight.Load() {
			return avail[1], false
		}
		return avail[0], false
	default:
		i := rt.jitter.Intn(len(avail))
		j := rt.jitter.Intn(len(avail) - 1)
		if j >= i {
			j++
		}
		if avail[j].inflight.Load() < avail[i].inflight.Load() {
			return avail[j], false
		}
		return avail[i], false
	}
}

// forwardHeaders are the request headers the router relays to the
// backend; everything else is dropped (hop-by-hop semantics).
// X-Tenant rides through verbatim — the backend's registry is the
// quota authority, the router never rewrites identity — and
// X-Tenant-Class is the client's advisory copy of its class for the
// router's own brownout shedding.
var forwardHeaders = []string{"Content-Type", "X-Detect-Deadline-Ms", "X-Tenant", "X-Tenant-Class"}

// forwardHTTP is the HTTP transport's attempt: POST the buffered body
// to one backend's /v1/detect. Transport errors, 5xx, and over-cap
// replies fail the attempt; everything else relays verbatim.
func (rt *Router) forwardHTTP(body []byte, hdr http.Header) func(context.Context, *backend) (*proxyResult, error) {
	return func(ctx context.Context, b *backend) (*proxyResult, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/detect", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("route: %s: %w", b.name, err)
		}
		for _, h := range forwardHeaders {
			if v := hdr.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("route: %s: %w", b.name, err)
		}
		defer resp.Body.Close()
		// One byte past the cap distinguishes "fits exactly" from
		// "bigger": an over-cap reply must fail the attempt, never be
		// truncated and relayed with the backend's success status as if
		// it were whole.
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes+1))
		switch {
		case err != nil:
			return nil, fmt.Errorf("route: %s: reading reply: %w", b.name, err)
		case int64(len(respBody)) > rt.cfg.MaxBodyBytes:
			return nil, fmt.Errorf("route: %s reply exceeds %d bytes", b.name, rt.cfg.MaxBodyBytes)
		case resp.StatusCode >= 500:
			return nil, fmt.Errorf("route: %s answered %d", b.name, resp.StatusCode)
		}
		return &proxyResult{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: respBody}, nil
	}
}
