package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"shmd/internal/core"
	"shmd/internal/faults"
	"shmd/internal/tenant"
	"shmd/internal/trace"
)

// The micro-batching dispatcher is the server's one dispatch path:
// concurrent detect programs coalesce into lane batches, each served by
// ONE pool-slot checkout and ONE batched undervolted pass
// (core.Supervisor.DetectBatch feeding the batch-lane kernels).
// MaxBatch <= 1 is the degenerate case: one-lane batches that flush on
// submit. Admission control, per-request deadlines, class priority,
// hedged dispatch, and decision tracing hold at every batch size:
//
//   - the admission queue token is held by each request's handler for
//     its whole life, batching wait included;
//   - a lane whose request deadline expires while the batch forms is
//     shed at flush time (its handler has already replied 503) and
//     never occupies a kernel lane;
//   - with tenancy on, a flush waits at the class gate at the highest
//     class among its live lanes, so under saturation realtime work
//     checks out ahead of standard ahead of batch;
//   - a batch past the hedge budget re-dispatches onto a second idle
//     slot, first outcome winning;
//   - with a trace sink attached, every lane's verdict records its own
//     per-lane draw log, replayable through the scalar replay path
//     (batched lane scores are bit-identical to scalar).
type batcher struct {
	srv  *Server
	max  int
	wait time.Duration

	mu      sync.Mutex
	pending []*lane
	// gen counts flushes; the flush timer captures the generation it was
	// armed for and stands down if the batch it guarded already flushed
	// full, so a late timer never double-flushes or mislabels a flush.
	gen   uint64
	timer *time.Timer
}

// lane is one program awaiting batched detection.
type lane struct {
	windows []trace.WindowCounts
	// tenant and class are the identity the lane's request was admitted
	// under: trace provenance and the class-gate priority (lanes from
	// different tenants share batches freely).
	tenant string
	class  tenant.Class
	ctx    context.Context
	enq    time.Time
	// idx is the lane's program index in its request.
	idx int
	// done is the request's completion channel, shared by all its
	// lanes and buffered for every one of them: each lane completes
	// exactly once, so a flusher delivering to an abandoned request
	// (deadline expired, client gone) never blocks.
	done chan<- laneOutcome
}

// finish delivers the lane's outcome, tagged with its program index.
func (ln *lane) finish(o laneOutcome) {
	o.idx = ln.idx
	ln.done <- o
}

// laneOutcome is one lane's verdict (or failure) as delivered to its
// waiting handler.
type laneOutcome struct {
	// idx is the program index of the lane it completes.
	idx     int
	v       core.Verdict
	session int
	// model is the model version of the slot that scored the lane.
	model  uint32
	hedged bool
	err    error
}

// batchOutcome is a request's assembled verdicts.
type batchOutcome struct {
	results []DetectResult
	// session is the slot that scored the first program.
	session int
	// hedge marks an outcome any of whose lanes the hedge runner scored.
	hedge bool
}

// newBatcher wires the dispatcher to the server's pool and metrics.
func newBatcher(srv *Server) *batcher {
	b := &batcher{srv: srv, max: max(srv.cfg.MaxBatch, 1), wait: srv.cfg.MaxBatchWait}
	b.pending = make([]*lane, 0, b.max)
	return b
}

// dispatch submits every program as a lane and assembles the request's
// results, in program order, as lanes complete. Lanes from one request
// may land in different batches (and thus different slots); the
// reported session is the first program's. A request error (deadline,
// pool closed) aborts the request at the first failed lane;
// verdict-level degradation does not.
//
// All lanes of a request complete into one channel with room for each
// of them. With one-lane batches the programs run one after another,
// in order, so a request's verdicts draw a slot's batch passes in
// program order exactly as on a single slot; larger batches take every
// lane at once so they can coalesce.
func (b *batcher) dispatch(ctx context.Context, class tenant.Class, tenantID string, programs []DecodedProgram) (batchOutcome, error) {
	done := make(chan laneOutcome, len(programs))
	lanes := make([]lane, len(programs))
	now := time.Now()
	for i, p := range programs {
		lanes[i] = lane{windows: p.Windows, tenant: tenantID, class: class, ctx: ctx, enq: now, idx: i, done: done}
	}
	out := batchOutcome{results: make([]DetectResult, len(programs)), session: -1}
	for lo := 0; lo < len(lanes); {
		hi := len(lanes)
		if b.max == 1 {
			hi = lo + 1
		}
		for i := lo; i < hi; i++ {
			b.submit(&lanes[i])
		}
		for range hi - lo {
			select {
			case o := <-done:
				if o.err != nil {
					return batchOutcome{}, o.err
				}
				i := o.idx
				if i == 0 {
					out.session = o.session
				}
				out.hedge = out.hedge || o.hedged
				conf := Confidence(o.v.Score, b.srv.threshold, o.v.Malware)
				b.srv.observeDecision(o.model, o.v.Malware, conf)
				out.results[i] = DetectResult{
					ID:          programs[i].ID,
					Malware:     o.v.Malware,
					Score:       o.v.Score,
					Confidence:  conf,
					Unprotected: o.v.Unprotected,
					Attempts:    o.v.Attempts,
					Windows:     len(programs[i].Windows),
				}
			case <-ctx.Done():
				// The remaining lanes stay in the batcher; the flusher
				// sheds or completes them into the buffered channel.
				return batchOutcome{}, ctx.Err()
			}
		}
		lo = hi
	}
	return out, nil
}

// submit adds one lane to the forming batch, flushing when it reaches
// MaxBatch and arming the MaxBatchWait timer when it opens a new batch.
func (b *batcher) submit(ln *lane) {
	b.mu.Lock()
	b.pending = append(b.pending, ln)
	if len(b.pending) >= b.max {
		batch := b.take()
		b.mu.Unlock()
		b.flushAsync(batch, "full")
		return
	}
	if len(b.pending) == 1 {
		gen := b.gen
		b.timer = time.AfterFunc(b.wait, func() { b.onTimer(gen) })
	}
	b.mu.Unlock()
}

// take claims the forming batch and disarms its timer. Callers hold
// b.mu.
func (b *batcher) take() []*lane {
	batch := b.pending
	b.pending = make([]*lane, 0, b.max)
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// onTimer flushes the batch the timer was armed for, unless that batch
// already flushed full (the generation moved on).
func (b *batcher) onTimer(gen uint64) {
	b.mu.Lock()
	if gen != b.gen || len(b.pending) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.take()
	b.mu.Unlock()
	b.flushAsync(batch, "timer")
}

// flushAsync runs the flush in a tracked goroutine: a flush can outlive
// every one of its lanes' handlers (all deadlines expired), and
// shutdown must still wait for it to release its slot.
func (b *batcher) flushAsync(lanes []*lane, reason string) {
	b.srv.detWG.Add(1)
	go func() {
		defer b.srv.detWG.Done()
		b.flush(lanes, reason)
	}()
}

// flush sheds expired lanes, waits at the class gate (tenancy on) and
// for one pool slot, and runs the survivors as one batch.
func (b *batcher) flush(lanes []*lane, reason string) {
	s := b.srv
	s.metrics.BatchFlush(reason, len(lanes))
	now := time.Now()
	live := lanes[:0]
	for _, ln := range lanes {
		s.metrics.ObserveBatchWait(now.Sub(ln.enq))
		if err := ln.ctx.Err(); err != nil {
			// The handler already replied (503 on deadline, 499 on a gone
			// client); the buffered send is bookkeeping for a listener
			// that may still be in its select.
			ln.finish(laneOutcome{err: err})
			continue
		}
		live = append(live, ln)
	}
	if s.gate != nil {
		live = acquire(live, func(ctx context.Context, class tenant.Class) error {
			return s.gate.Acquire(ctx, class)
		})
		if len(live) == 0 {
			return
		}
		defer s.gate.Release()
		s.metrics.ObserveClassWait(int(topClass(live)), time.Since(now))
	}
	var slot *Slot
	live = acquire(live, func(ctx context.Context, _ tenant.Class) (err error) {
		slot, err = s.pool.Acquire(ctx)
		return err
	})
	if len(live) > 0 {
		b.run(slot, live)
	}
}

// acquire waits in get under the oldest live lane's context, at the
// highest class among the live lanes, and returns the lanes still live
// once get succeeds. A wait that ends with a lane's context fails that
// lane and keeps waiting for the rest, whose deadlines may still have
// room; a closed pool fails every lane.
func acquire(live []*lane, get func(context.Context, tenant.Class) error) []*lane {
	for len(live) > 0 {
		err := get(live[0].ctx, topClass(live))
		if err == nil {
			return live
		}
		if errors.Is(err, ErrPoolClosed) {
			for _, ln := range live {
				ln.finish(laneOutcome{err: err})
			}
			return nil
		}
		live[0].finish(laneOutcome{err: err})
		live = live[1:]
	}
	return nil
}

// topClass is the highest priority class among lanes.
func topClass(lanes []*lane) tenant.Class {
	c := lanes[0].class
	for _, ln := range lanes[1:] {
		c = max(c, ln.class)
	}
	return c
}

// batchRun is one runner's outcome for a whole batch.
type batchRun struct {
	verdicts []core.Verdict
	session  int
	model    uint32
	hedge    bool
	err      error
}

// run executes the batch on the acquired slot, hedging onto a second
// idle slot past the configured budget; the first successful outcome
// fans out to the lanes.
func (b *batcher) run(primary *Slot, lanes []*lane) {
	traces := make([][]trace.WindowCounts, len(lanes))
	for i, ln := range lanes {
		traces[i] = ln.windows
	}
	// Buffered for every possible runner so a loser's send never blocks.
	outcomes := make(chan batchRun, 2)
	b.runDetached(primary, lanes, traces, false, outcomes)

	var hedgeC <-chan time.Time
	if b.srv.cfg.HedgeAfter > 0 {
		tm := time.NewTimer(b.srv.cfg.HedgeAfter)
		defer tm.Stop()
		hedgeC = tm.C
	}
	pending := 1
	var firstErr error
	for pending > 0 {
		select {
		case out := <-outcomes:
			pending--
			if out.err == nil {
				for j, ln := range lanes {
					ln.finish(laneOutcome{v: out.verdicts[j], session: out.session, model: out.model, hedged: out.hedge})
				}
				return
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			// Never wait for a hedge slot: hedging spends only capacity
			// that is idle right now.
			if hslot, ok := b.srv.pool.TryAcquire(); ok {
				b.srv.metrics.Hedge()
				pending++
				b.runDetached(hslot, lanes, traces, true, outcomes)
			}
		}
	}
	for _, ln := range lanes {
		ln.finish(laneOutcome{err: firstErr})
	}
}

// runDetached starts one tracked runner that serves the whole batch
// through the slot's supervisor in a single batched detection, records
// each lane's provenance when tracing is on, and always releases its
// own slot — so a hedged loser can finish after the winner replied.
func (b *batcher) runDetached(slot *Slot, lanes []*lane, traces [][]trace.WindowCounts, hedge bool, outcomes chan<- batchRun) {
	s := b.srv
	s.detWG.Add(1)
	go func() {
		defer s.detWG.Done()
		record := s.cfg.Trace != nil
		verdicts, logs, err := slot.Sup.DetectBatch(traces, record)
		if err == nil && record {
			for j, v := range verdicts {
				draws := faults.DrawLog{InitialGap: -1}
				if logs != nil && !v.Unprotected {
					draws = logs[j]
				}
				s.traceRecord(slot, traces[j], v, Confidence(v.Score, s.threshold, v.Malware), draws, lanes[j].tenant)
			}
		}
		s.pool.Release(slot)
		outcomes <- batchRun{verdicts: verdicts, session: slot.ID, model: slot.Model, hedge: hedge, err: err}
	}()
}
