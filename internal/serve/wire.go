package serve

// The SHMDWIRE streaming listener: persistent binary connections
// multiplexing detect streams into the same detect core (detect.go) as
// the HTTP transport: admission, deadline plumbing, micro-batcher,
// hedged dispatch, tracing, metrics, and failure classification. One
// connection carries many concurrent DETECT frames; each frame becomes
// one tracked detection whose VERDICT (or typed ERROR) is written back
// under the frame's correlation id, so windows from a Pin-style
// collector stream without per-request connection or JSON re-encoding
// cost.
//
// Graceful drain mirrors the HTTP path: the server broadcasts a
// GOAWAY frame to every live connection, stops admitting new DETECTs
// (typed 503), finishes in-flight ones, and only then closes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shmd/internal/trace"
	"shmd/internal/wire"
)

// wireState tracks live SHMDWIRE connections for drain broadcast.
type wireState struct {
	mu    sync.Mutex
	conns map[*wireConn]struct{}
}

// wireConn is one accepted SHMDWIRE connection.
type wireConn struct {
	c *wire.Conn
	// wg counts in-flight detect goroutines on this connection.
	wg sync.WaitGroup
	// cancel ends the connection's context, unblocking any dispatch
	// still waiting when the connection is force-closed.
	cancel context.CancelFunc
	// extended latches when the client sends its own HELLO (the v1.1
	// opt-in); only extended peers receive ERROR retry-after tails.
	// Atomic because detect goroutines read it while the read loop may
	// still process a late HELLO.
	extended atomic.Bool
	// tenantID is the connection-level identity bound by the client
	// HELLO metadata; per-frame tenant tags take precedence. Written
	// and read only on the connection's read loop.
	tenantID string
	// streams holds the connection's live sliding-window detection
	// streams, keyed by client-chosen stream id. Touched only on the
	// read loop, so no lock.
	streams map[uint32]*windowStream
}

// maxWireStreams bounds the live sliding-window streams one
// connection may hold open.
const maxWireStreams = 64

// windowStream is one long-lived sliding-window detection stream: a
// trailing buffer of the model period's windows, re-scored every
// stride appended windows.
type windowStream struct {
	label  string
	tenant string
	stride int
	period int
	// buf holds the trailing period windows (fewer until period have
	// arrived). Its capacity is period; slide copies into it and never
	// appends past it.
	buf []trace.WindowCounts
	// total counts windows ever appended; a re-scoring triggered at
	// window N is labelled "<label>#N" in its verdict.
	total int
	// sinceScore counts windows appended since the last re-scoring.
	sinceScore int
}

// newWindowStream opens an empty stream.
func newWindowStream(label string, period, stride int) *windowStream {
	return &windowStream{label: label, period: period, stride: stride, buf: make([]trace.WindowCounts, 0, period)}
}

// slide appends windows to the stream and returns the re-scorings they
// trigger, in order: every window that completes a period and reaches
// the stride since the last re-scoring yields the trailing period
// windows, labelled "<label>#N" with N the window's index.
//
// An append with re-scorings due builds one slab, the buffered tail
// followed by windows, and every span is a capacity-capped sub-slice
// of it, so overlapping spans share memory. Spans are read-only
// downstream (feature extraction and the batch pass only read them,
// and a trace record keeps them), so the slab is never reused; the
// stream's own tail is a separate buffer. All labels of one append
// share one string. An append with nothing due allocates nothing.
func (st *windowStream) slide(windows []trace.WindowCounts) []DecodedProgram {
	due, since := 0, st.sinceScore
	for i := range windows {
		if since++; st.due(st.total+i+1, since) {
			due++
			since = 0
		}
	}
	var programs []DecodedProgram
	if due > 0 {
		tail := len(st.buf)
		slab := make([]trace.WindowCounts, tail+len(windows))
		copy(slab, st.buf)
		copy(slab[tail:], windows)
		var digits [20]byte
		last := len(strconv.AppendInt(digits[:0], int64(st.total+len(windows)), 10))
		var labels strings.Builder
		labels.Grow(due * (len(st.label) + 1 + last))
		programs = make([]DecodedProgram, 0, due)
		since = st.sinceScore
		for i := range windows {
			n := st.total + i + 1
			if since++; !st.due(n, since) {
				continue
			}
			since = 0
			from := labels.Len()
			labels.WriteString(st.label)
			labels.WriteByte('#')
			labels.Write(strconv.AppendInt(digits[:0], int64(n), 10))
			end := tail + i + 1
			programs = append(programs, DecodedProgram{
				ID:      labels.String()[from:],
				Windows: slab[end-st.period : end : end],
			})
		}
	}
	st.total += len(windows)
	st.sinceScore = since
	st.keep(windows)
	return programs
}

// due reports whether the window that brings the stream to n windows,
// the since-th after the last re-scoring, triggers a re-scoring.
func (st *windowStream) due(n, since int) bool {
	return n >= st.period && since >= st.stride
}

// keep updates the buffered tail to the last period windows after
// windows were appended, copying within buf's fixed capacity.
func (st *windowStream) keep(windows []trace.WindowCounts) {
	if len(windows) >= st.period {
		st.buf = st.buf[:st.period]
		copy(st.buf, windows[len(windows)-st.period:])
		return
	}
	old := min(len(st.buf), st.period-len(windows))
	copy(st.buf, st.buf[len(st.buf)-old:])
	st.buf = st.buf[:old+len(windows)]
	copy(st.buf[old:], windows)
}

// register adds a live connection (nil map allocates on first use).
func (ws *wireState) register(wc *wireConn) {
	ws.mu.Lock()
	if ws.conns == nil {
		ws.conns = make(map[*wireConn]struct{})
	}
	ws.conns[wc] = struct{}{}
	ws.mu.Unlock()
}

// unregister removes a connection.
func (ws *wireState) unregister(wc *wireConn) {
	ws.mu.Lock()
	delete(ws.conns, wc)
	ws.mu.Unlock()
}

// snapshot copies the live connection set.
func (ws *wireState) snapshot() []*wireConn {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]*wireConn, 0, len(ws.conns))
	for wc := range ws.conns {
		out = append(out, wc)
	}
	return out
}

// ServeWire accepts SHMDWIRE connections on ln until ctx is cancelled,
// then drains gracefully: GOAWAY to every connection, in-flight
// detects finish (bounded by ShutdownTimeout), stragglers are cut.
// It serves the same pool as the HTTP listener and does not close it —
// the caller owns the pool's lifetime (Serve's shutdown path, or an
// explicit Close when running wire-only).
func (s *Server) ServeWire(ctx context.Context, ln net.Listener) error {
	done := make(chan error, 1)
	go func() { done <- s.acceptWire(ln) }()
	select {
	case <-ctx.Done():
		s.draining.Store(true) // /readyz goes 503 before the drain starts
		ln.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		s.drainWire(shCtx)
		s.waitRunners(shCtx)
		<-done
		return nil
	case err := <-done:
		return err
	}
}

// acceptWire runs the accept loop; a closed listener ends it cleanly.
func (s *Server) acceptWire(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handleWireConn(nc)
	}
}

// drainWire broadcasts GOAWAY, waits for every connection's in-flight
// detects (bounded by ctx), then closes whatever remains.
func (s *Server) drainWire(ctx context.Context) {
	conns := s.wire.snapshot()
	goaway := wire.AppendGoAway(nil, wire.GoAway{Code: 0, Msg: "draining"})
	for _, wc := range conns {
		s.metrics.WireGoAway()
		wc.c.WriteFrame(wire.Frame{Type: wire.FrameGoAway, Payload: goaway})
	}
	idle := make(chan struct{})
	go func() {
		for _, wc := range conns {
			wc.wg.Wait()
		}
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
	}
	for _, wc := range conns {
		wc.cancel()
		wc.c.Close()
	}
}

// handleWireConn owns one connection: handshake, HELLO, then the frame
// loop. Detect frames run in per-frame goroutines so one slow batch
// never blocks the next frame — that concurrency is what feeds the
// micro-batcher from a single connection.
func (s *Server) handleWireConn(nc net.Conn) {
	c := wire.NewConn(nc, int(s.cfg.Limits.MaxBodyBytes))
	v, err := c.Handshake(s.cfg.ReadHeaderTimeout)
	if err != nil {
		c.Close()
		return
	}
	s.metrics.WireConnOpen()
	defer s.metrics.WireConnClose()
	if v != wire.ProtoVersion {
		// Answer skew with a typed error, not a silent hangup, so the
		// client can report something actionable.
		c.WriteError(0, wire.CodeVersion, fmt.Sprintf("server speaks SHMDWIRE v%d, client sent v%d", wire.ProtoVersion, v))
		c.Close()
		return
	}
	if err := c.WriteFrame(wire.Frame{
		Type:    wire.FrameHello,
		Payload: wire.AppendHello(nil, wire.Hello{Version: wire.ProtoVersion, MaxFrame: uint32(c.MaxPayload())}),
	}); err != nil {
		c.Close()
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	wc := &wireConn{c: c, cancel: cancel}
	s.wire.register(wc)
	defer func() {
		s.wire.unregister(wc)
		cancel()
		// The reader is gone; wait for in-flight detects (their verdict
		// writes fail fast once the conn closes) before releasing the conn.
		wc.wg.Wait()
		c.Close()
	}()
	if s.draining.Load() {
		s.metrics.WireGoAway()
		c.WriteFrame(wire.Frame{Type: wire.FrameGoAway, Payload: wire.AppendGoAway(nil, wire.GoAway{Code: 0, Msg: "draining"})})
	}

	for {
		f, err := c.ReadFrame()
		if err != nil {
			var tooBig *wire.TooLargeError
			if errors.As(err, &tooBig) {
				// The stream is still synchronized: reject this frame and
				// keep the connection.
				s.writeWireError(wc, tooBig.Corr, failure{code: int(wire.CodeTooLarge), msg: err.Error()})
				continue
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				log.Printf("serve: wire: closing %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		s.metrics.WireFrame()
		switch f.Type {
		case wire.FrameDetect:
			s.wireDetect(ctx, wc, f)
		case wire.FrameStream:
			s.wireStream(ctx, wc, f)
		case wire.FrameHello:
			s.wireHello(wc, f)
		case wire.FramePing:
			c.WriteFrame(wire.Frame{Type: wire.FramePong, Corr: f.Corr})
		case wire.FrameHealthReq:
			s.wireHealth(c, f.Corr)
		case wire.FrameGoAway:
			// The client is draining its side; it will close when its
			// in-flight requests complete. Nothing to do server-side.
		default:
			if !f.Type.Known() {
				// Forward compatibility: skip with a warning, never kill
				// the connection over a frame we don't understand.
				s.metrics.WireUnknownFrame()
				log.Printf("serve: wire: skipping unknown frame type 0x%02x from %s", uint8(f.Type), c.RemoteAddr())
				continue
			}
			s.writeWireError(wc, f.Corr, failure{code: int(wire.CodeBadRequest), msg: fmt.Sprintf("unexpected %v frame", f.Type)})
		}
	}
}

// wireHello handles a client HELLO — the v1.1 opt-in, new in this
// direction (the server's own HELLO still opens every connection).
// Its metadata binds a connection-level tenant identity; per-frame
// tenant tags take precedence over it. The class advisory
// (wire.MetaClass) is for relays: this server resolves the
// authoritative class from its tenant registry.
func (s *Server) wireHello(wc *wireConn, f wire.Frame) {
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		s.writeWireError(wc, f.Corr, failure{code: int(wire.CodeBadRequest), msg: err.Error()})
		return
	}
	wc.extended.Store(true)
	if id, ok := h.Meta[wire.MetaTenant]; ok {
		wc.tenantID = id
	}
}

// writeWireError records and sends one typed ERROR. A backoff hint
// rides twice: extended (v1.1) peers get the machine-readable
// RetryAfterSec tail, and the message text carries it for legacy
// peers. A gone client (499) is recorded, not answered.
func (s *Server) writeWireError(wc *wireConn, corr uint64, f failure) {
	s.metrics.Request(f.code)
	if f.code == statusClientClosedRequest {
		return
	}
	e := wire.ErrorFrame{Code: wire.ErrorCode(f.code), Msg: f.msg}
	if f.hint > 0 {
		e.Msg = fmt.Sprintf("%s; retry in %ds", f.msg, f.hint)
		if f.hint <= int(^uint16(0)) && wc.extended.Load() {
			e.RetryAfterSec = uint16(f.hint)
		}
	}
	wc.c.WriteFrame(wire.Frame{Type: wire.FrameError, Corr: corr, Payload: wire.AppendErrorFrame(nil, e)})
}

// wireHealth answers a HEALTH_REQ with the same JSON report /healthz
// serves, carried opaquely in a HEALTH frame.
func (s *Server) wireHealth(c *wire.Conn, corr uint64) {
	report, code := s.healthReport()
	s.metrics.Request(code)
	payload, err := json.Marshal(report)
	if err != nil {
		c.WriteError(corr, wire.CodeInternal, err.Error())
		return
	}
	c.WriteFrame(wire.Frame{Type: wire.FrameHealth, Corr: corr, Payload: payload})
}

// wireDetect decodes, admits, and launches one DETECT frame. Decode
// and admission run on the read loop (both are cheap and their typed
// rejections must preserve frame order); admission follows decode
// because the per-frame tenant tag lives in the payload.
func (s *Server) wireDetect(ctx context.Context, wc *wireConn, f wire.Frame) {
	start := time.Now()
	if s.draining.Load() {
		s.writeWireError(wc, f.Corr, failure{code: int(wire.CodeUnavailable), msg: "draining"})
		return
	}
	req, err := wire.DecodeDetectRequest(f.Payload)
	if err != nil {
		s.writeWireError(wc, f.Corr, failure{code: int(wire.CodeBadRequest), msg: err.Error()})
		return
	}
	programs := req.Programs
	if err := ValidatePrograms(programs, s.cfg.Limits); err != nil {
		s.writeWireError(wc, f.Corr, failure{code: StatusOf(err), msg: err.Error()})
		return
	}
	// The frame tag outranks the connection HELLO binding.
	id := req.Tenant
	if id == "" {
		id = wc.tenantID
	}
	tk, err := s.admit(id)
	if err != nil {
		s.writeWireError(wc, f.Corr, s.classify(err))
		return
	}
	deadline := req.Deadline()
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	s.wireRun(ctx, wc, f.Corr, tk, programs, deadline, start)
}

// wireRun runs an admitted request through the detect core in a
// tracked goroutine, so the connection keeps multiplexing, and answers
// its VERDICT (or typed ERROR) under corr.
func (s *Server) wireRun(ctx context.Context, wc *wireConn, corr uint64, tk ticket, programs []DecodedProgram, deadline time.Duration, start time.Time) {
	wc.wg.Add(1)
	go func() {
		defer wc.wg.Done()
		defer s.release(tk)
		out, err := s.detect(ctx, tk, programs, deadline, start)
		var payload []byte
		if err == nil {
			payload, err = s.encodeVerdict(out, tk.tenantID)
		}
		if err != nil {
			s.writeWireError(wc, corr, s.classify(err))
			return
		}
		s.metrics.Request(200)
		wc.c.WriteFrame(wire.Frame{Type: wire.FrameVerdict, Corr: corr, Payload: payload})
	}()
}

// encodeVerdict builds the VERDICT payload for a finished batch,
// tagging it with the serving tenant so identity round-trips
// bit-identically across transports.
func (s *Server) encodeVerdict(out batchOutcome, tenantID string) ([]byte, error) {
	results := make([]wire.VerdictResult, len(out.results))
	for i, res := range out.results {
		results[i] = wire.VerdictResult{
			ID:          res.ID,
			Malware:     res.Malware,
			Unprotected: res.Unprotected,
			Score:       res.Score,
			Confidence:  res.Confidence,
			Attempts:    uint32(res.Attempts),
			Windows:     uint32(res.Windows),
		}
	}
	return wire.AppendVerdict(nil, wire.Verdict{
		Session: int32(out.session),
		Hedged:  out.hedge,
		Results: results,
		Tenant:  tenantID,
	})
}

// wireStream handles one STREAM frame: an append to (or open/close
// of) a long-lived sliding-window detection stream. The stream keeps
// the trailing detection-period windows buffered server-side and
// re-scores them every stride appended windows, so a Pin-style
// collector ships each window once and still gets overlapping
// verdicts. Buffer bookkeeping runs on the read loop (appends must
// stay ordered); any triggered re-scorings dispatch in a tracked
// goroutine exactly like a DETECT, answering a VERDICT under the
// append's correlation id (zero results = ack, windows buffered but
// no re-scoring due).
//
// Tenant QoS is applied per append, not just at open: every
// window-carrying append charges the stream tenant's bucket, so a
// stream cannot smuggle unmetered load past admission.
func (s *Server) wireStream(ctx context.Context, wc *wireConn, f wire.Frame) {
	start := time.Now()
	if s.draining.Load() {
		s.writeWireError(wc, f.Corr, failure{code: int(wire.CodeUnavailable), msg: "draining"})
		return
	}
	req, err := wire.DecodeStreamRequest(f.Payload)
	if err != nil {
		s.writeWireError(wc, f.Corr, failure{code: int(wire.CodeBadRequest), msg: err.Error()})
		return
	}
	if wc.streams == nil {
		wc.streams = make(map[uint32]*windowStream)
	}
	st, open := wc.streams[req.StreamID]
	if !open {
		if req.Close {
			// Closing a stream that is not open is idempotent: ack.
			s.ackStream(wc, f.Corr, "")
			return
		}
		if len(wc.streams) >= maxWireStreams {
			s.writeWireError(wc, f.Corr, failure{
				code: int(wire.CodeOverloaded),
				msg:  fmt.Sprintf("connection holds %d streams, limit %d", len(wc.streams), maxWireStreams),
				hint: s.jitter.RetryAfter(),
			})
			return
		}
		st = newWindowStream(req.ID, s.cfg.Limits.MinWindows, int(req.Stride))
		if s.tenants != nil {
			id := req.Tenant
			if id == "" {
				id = wc.tenantID
			}
			look := s.tenants.Lookup(id)
			if !look.OK() {
				s.writeWireError(wc, f.Corr, s.classify(&admitError{adm: look}))
				return
			}
			st.tenant = look.Tenant
			if st.stride == 0 {
				st.stride = look.Stride
			}
		}
		if st.stride <= 0 {
			st.stride = st.period
		}
		wc.streams[req.StreamID] = st
	} else if req.Tenant != "" && req.Tenant != st.tenant {
		// An append cannot re-bill an open stream to another tenant.
		s.writeWireError(wc, f.Corr, failure{
			code: int(wire.CodeBadRequest),
			msg:  fmt.Sprintf("stream %d is bound to tenant %q, append tagged %q", req.StreamID, st.tenant, req.Tenant),
		})
		return
	}
	if req.Close {
		defer delete(wc.streams, req.StreamID)
	}
	if len(req.Windows) == 0 {
		s.ackStream(wc, f.Corr, st.tenant)
		return
	}

	// Per-append admission, like every detect: a shed append buffers
	// nothing — the client retries the same windows after the hint.
	tk, err := s.admit(st.tenant)
	if err != nil {
		s.writeWireError(wc, f.Corr, s.classify(err))
		return
	}

	programs := st.slide(req.Windows)
	if len(programs) == 0 {
		s.release(tk)
		s.ackStream(wc, f.Corr, st.tenant)
		return
	}
	s.wireRun(ctx, wc, f.Corr, tk, programs, s.cfg.DefaultDeadline, start)
}

// ackStream answers a STREAM append that triggered no re-scoring with
// an empty VERDICT under the append's correlation id.
func (s *Server) ackStream(wc *wireConn, corr uint64, tenantID string) {
	payload, err := wire.AppendVerdict(nil, wire.Verdict{Session: -1, Tenant: tenantID})
	if err != nil {
		s.writeWireError(wc, corr, s.classify(err))
		return
	}
	s.metrics.Request(200)
	wc.c.WriteFrame(wire.Frame{Type: wire.FrameVerdict, Corr: corr, Payload: payload})
}
