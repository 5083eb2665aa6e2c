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
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmd/internal/chaos"
	"shmd/internal/replay"
	"shmd/internal/tenant"
	"shmd/internal/trace"
)

// TestBatchedDetectFullFlush pins the size-triggered path: a request
// carrying exactly MaxBatch programs fills the forming batch on
// arrival, so it flushes with reason "full" and every program gets a
// well-formed verdict from one batched pass.
func TestBatchedDetectFullFlush(t *testing.T) {
	srv := newTestServer(t, Config{MaxBatch: 4, MaxBatchWait: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body := detectBody(t,
		testWindows(t, trace.Trojan, 0, 8),
		testWindows(t, trace.Benign, 0, 8),
		testWindows(t, trace.Worm, 1, 8),
		testWindows(t, trace.Backdoor, 2, 8))
	resp, raw := postDetect(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var dr DetectResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatalf("bad response %s: %v", raw, err)
	}
	if len(dr.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(dr.Results))
	}
	if dr.Session < 0 || dr.Session >= srv.Pool().Size() {
		t.Errorf("session = %d outside pool", dr.Session)
	}
	for i, r := range dr.Results {
		if r.ID != fmt.Sprintf("prog-%d", i) {
			t.Errorf("result %d id = %q", i, r.ID)
		}
		if r.Score < 0 || r.Score > 1 {
			t.Errorf("result %d score = %v", i, r.Score)
		}
		if r.Unprotected {
			t.Errorf("result %d unprotected on ideal hardware", i)
		}
		if r.Attempts < 1 {
			t.Errorf("result %d attempts = %d", i, r.Attempts)
		}
		if want := Confidence(r.Score, 0.5, r.Malware); r.Confidence != want {
			t.Errorf("result %d confidence %v, margin says %v", i, r.Confidence, want)
		}
	}
	// The wait timer was pinned at an hour, so only the size trigger can
	// have flushed — and it must have, exactly once for four lanes.
	full, timer := srv.Metrics().BatchFlushes()
	if full != 1 || timer != 0 {
		t.Errorf("flushes full=%d timer=%d, want 1/0", full, timer)
	}

	// Each lane is one supervisor detection on the slot that served it.
	var served uint64
	for _, slot := range srv.Pool().Slots() {
		served += slot.Sup.Health().Detections
	}
	if served != 4 {
		t.Errorf("supervisors served %d detections, want 4", served)
	}
}

// TestBatchedDetectTimerFlush pins the wait-triggered path: a partial
// batch must not wait for lanes that never come — the MaxBatchWait
// timer flushes it.
func TestBatchedDetectTimerFlush(t *testing.T) {
	srv := newTestServer(t, Config{MaxBatch: 8, MaxBatchWait: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, raw := postDetect(t, ts, detectBody(t,
		testWindows(t, trace.Trojan, 3, 8),
		testWindows(t, trace.Benign, 3, 8)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var dr DetectResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(dr.Results))
	}
	full, timer := srv.Metrics().BatchFlushes()
	if full != 0 || timer == 0 {
		t.Errorf("flushes full=%d timer=%d, want 0/1+", full, timer)
	}
}

// TestBatchedMixedDeadlines is the batching analogue of the scalar
// deadline contract, driven with the race detector in mind: 64
// concurrent clients share one batcher, half with a deadline far
// shorter than the batch wait (they must shed 503 without ever
// occupying a kernel lane) and half unbounded (they must all get
// verdicts, unaffected by their expired neighbours). MaxBatch is
// larger than the client count so no flush can beat the wait timer,
// and the margins absorb scheduler jitter: a deadline lane only
// avoids shedding if its request arrives within 50ms of a flush that
// fires a full second after the first arrival, i.e. after 950ms of
// goroutine start skew. (TestBatchedShedSkipsDetection pins the same
// invariant with no clock at all.)
func TestBatchedMixedDeadlines(t *testing.T) {
	const clients = 64
	srv := newTestServer(t, Config{
		Pool:         PoolConfig{Size: 2},
		QueueDepth:   clients * 2,
		MaxBatch:     100,
		MaxBatchWait: time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Client().Transport = &http.Transport{MaxIdleConnsPerHost: clients}

	body := detectBody(t, testWindows(t, trace.Trojan, 1, 4))
	var wg sync.WaitGroup
	var ok200, ok503 atomic.Uint64
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			expired := c%2 == 1
			if expired {
				req.Header.Set(deadlineHeader, "50")
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				errc <- err
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case expired && resp.StatusCode == http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					errc <- fmt.Errorf("client %d: 503 missing Retry-After", c)
					return
				}
				ok503.Add(1)
			case !expired && resp.StatusCode == http.StatusOK:
				var dr DetectResponse
				if err := json.Unmarshal(raw, &dr); err != nil {
					errc <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if len(dr.Results) != 1 {
					errc <- fmt.Errorf("client %d: %d results", c, len(dr.Results))
					return
				}
				ok200.Add(1)
			default:
				errc <- fmt.Errorf("client %d (expired=%v): status %d, body %s", c, expired, resp.StatusCode, raw)
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := ok200.Load(); got != clients/2 {
		t.Errorf("unbounded clients served = %d, want %d", got, clients/2)
	}
	if got := ok503.Load(); got != clients/2 {
		t.Errorf("deadline clients shed = %d, want %d", got, clients/2)
	}
	if got := srv.Metrics().DeadlineExpirations(); got != clients/2 {
		t.Errorf("deadline expirations = %d, want %d", got, clients/2)
	}
	if got := srv.Pool().DoubleCheckouts(); got != 0 {
		t.Fatalf("pool handed out a session twice: %d violations", got)
	}
	// Shed lanes never reach a supervisor: exactly the live lanes count.
	var served uint64
	for _, slot := range srv.Pool().Slots() {
		served += slot.Sup.Health().Detections
	}
	if served != clients/2 {
		t.Errorf("supervisors served %d detections, want %d", served, clients/2)
	}
}

// TestBatchedShedSkipsDetection pins the shed-saves-work invariant
// with no wall-clock in play: lanes whose context is already dead
// when their batch flushes are shed without ever reaching a
// supervisor, while live lanes in the same batch are served.
func TestBatchedShedSkipsDetection(t *testing.T) {
	srv := newTestServer(t, Config{
		Pool:         PoolConfig{Size: 1},
		MaxBatch:     3,
		MaxBatchWait: time.Hour,
	})
	defer srv.Close()
	progs := []DecodedProgram{{ID: "p", Windows: testWindows(t, trace.Trojan, 0, 8)}}

	// Two lanes born dead: dispatch returns their context error
	// immediately, but the lanes stay in the forming batch.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		if _, err := srv.batcher.dispatch(dead, tenant.Batch, "", progs); !errors.Is(err, context.Canceled) {
			t.Fatalf("dead lane %d: err = %v, want context.Canceled", i, err)
		}
	}
	// The live lane fills the batch (size trigger, the wait timer is
	// pinned at an hour) and must be the only one detected.
	out, err := srv.batcher.dispatch(context.Background(), tenant.Batch, "", progs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.results) != 1 {
		t.Fatalf("live lane results = %d, want 1", len(out.results))
	}
	if full, timer := srv.Metrics().BatchFlushes(); full != 1 || timer != 0 {
		t.Errorf("flushes full=%d timer=%d, want 1/0", full, timer)
	}
	var served uint64
	for _, slot := range srv.Pool().Slots() {
		served += slot.Sup.Health().Detections
	}
	if served != 1 {
		t.Errorf("supervisors served %d detections, want 1 (dead lanes shed)", served)
	}
}

// TestBatchedMetricsScrape pins the batching counters in the
// Prometheus rendering: flush reasons, the batch-size histogram, the
// batch-wait histogram, and that every non-comment line parses as
// `name{labels} value`.
func TestBatchedMetricsScrape(t *testing.T) {
	srv := newTestServer(t, Config{MaxBatch: 2, MaxBatchWait: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, raw := postDetect(t, ts, detectBody(t,
		testWindows(t, trace.Trojan, 0, 4),
		testWindows(t, trace.Benign, 0, 4)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d (%s)", resp.StatusCode, raw)
	}

	mResp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mRaw, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	metrics := string(mRaw)
	for _, want := range []string{
		`shmd_batch_flush_total{reason="full"} 1`,
		`shmd_batch_flush_total{reason="timer"} 0`,
		`shmd_batch_size_bucket{le="2"} 1`,
		`shmd_batch_size_bucket{le="+Inf"} 1`,
		"shmd_batch_size_sum 2",
		"shmd_batch_size_count 1",
		`shmd_batch_wait_seconds_bucket{le="+Inf"} 2`,
		"shmd_batch_wait_seconds_count 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// Exposition-format sanity: every non-comment line is a sample with
	// a parseable float value.
	for _, line := range strings.Split(metrics, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("unparseable metric line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("metric line %q: bad value: %v", line, err)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("metric line %q: unbalanced labels", line)
			}
			name = name[:j]
		}
		if !strings.HasPrefix(name, "shmd_") {
			t.Errorf("metric line %q: name outside the shmd namespace", line)
		}
	}
}

// TestBatchedChaosPool runs the batched path over a chaos-built pool:
// chaos slots use caller-supplied hardware, which only serves batches
// because the pool opts them into lane streams (EnableBatchStreams) —
// this test pins that wiring.
func TestBatchedChaosPool(t *testing.T) {
	srv := newTestServer(t, Config{
		Pool:         PoolConfig{Size: 1, ChaosConfig: &chaos.Config{Seed: 9}},
		MaxBatch:     3,
		MaxBatchWait: time.Hour,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	det := srv.Pool().Slots()[0].Det
	if _, ok := det.Regulator().(*chaos.Env); !ok {
		t.Fatalf("slot regulator is %T, want *chaos.Env", det.Regulator())
	}
	if !det.BatchCapable() {
		t.Fatal("chaos-built slot detector is not batch-capable")
	}

	resp, raw := postDetect(t, ts, detectBody(t,
		testWindows(t, trace.Trojan, 0, 8),
		testWindows(t, trace.Benign, 0, 8),
		testWindows(t, trace.Worm, 0, 8)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var dr DetectResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(dr.Results))
	}
	for i, r := range dr.Results {
		if r.Score < 0 || r.Score > 1 {
			t.Errorf("result %d score = %v", i, r.Score)
		}
	}
	if full, _ := srv.Metrics().BatchFlushes(); full != 1 {
		t.Errorf("full flushes = %d, want 1", full)
	}
}

// TestBatchedTraceReplaysBitIdentically extends the tentpole replay
// contract to the batched path: every lane's verdict records its own
// per-lane draw log, and each replays off-hardware through the
// unchanged scalar replayer to the exact served verdict, score, and
// confidence — batched lane scores are bit-identical to scalar.
func TestBatchedTraceReplaysBitIdentically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batched.trace")
	sink, err := replay.OpenSink(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{
		Trace:        sink,
		MaxBatch:     4,
		MaxBatchWait: time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())

	scored := 0
	for i := 0; i < 4; i++ {
		body := detectBody(t,
			testWindows(t, trace.Trojan, i, 8),
			testWindows(t, trace.Benign, i, 8))
		resp, raw := postDetect(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, raw)
		}
		scored += 2
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Written()+sink.Dropped() < uint64(scored) {
		t.Fatalf("sink accounted %d+%d records, served %d decisions",
			sink.Written(), sink.Dropped(), scored)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := replay.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	base := testHMD(t)
	n := 0
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.Unprotected {
			t.Errorf("record %d: unprotected on ideal hardware", n)
		}
		if len(rec.Draws.Bits) == 0 && len(rec.Draws.Gaps) == 0 && rec.Draws.InitialGap == -1 && rec.Rate > 0 {
			// A protected batched lane at a nonzero rate should usually
			// carry draws; an empty log is legal (no faults hit) but a
			// missing one would replay exact and still verify, so pin the
			// stronger invariant through Verify below.
			t.Logf("record %d: empty draw log at rate %v", n, rec.Rate)
		}
		if err := replay.Verify(base, rec, Confidence); err != nil {
			t.Errorf("record %d (slot %d gen %d): %v", n, rec.Slot, rec.Gen, err)
		}
		n++
	}
	if uint64(n) != sink.Written() {
		t.Fatalf("trace holds %d records, sink wrote %d", n, sink.Written())
	}
}

// TestBatchedConfig pins the construction contract: negative MaxBatch
// is rejected, 0 and 1 give one-lane batches that flush on submit with
// no wait, and >1 defaults the wait.
func TestBatchedConfig(t *testing.T) {
	if _, err := New(testHMD(t), Config{MaxBatch: -1}); err == nil {
		t.Error("negative MaxBatch accepted")
	}
	for _, mb := range []int{0, 1} {
		srv := newTestServer(t, Config{MaxBatch: mb})
		if srv.batcher.max != 1 || srv.batcher.wait != 0 {
			t.Errorf("MaxBatch %d: batcher max %d wait %v, want one lane, no wait", mb, srv.batcher.max, srv.batcher.wait)
		}
		srv.Close()
	}
	srv := newTestServer(t, Config{MaxBatch: 16})
	if srv.batcher.max != 16 {
		t.Fatalf("MaxBatch 16: batcher max %d", srv.batcher.max)
	}
	if srv.batcher.wait != 2*time.Millisecond {
		t.Errorf("default MaxBatchWait = %v, want 2ms", srv.batcher.wait)
	}
	srv.Close()
}

// TestBatchedClassPriority pins class-ordered checkout at every batch
// size: with the pool saturated, a realtime lane is checked out ahead
// of a batch-class lane that queued before it.
func TestBatchedClassPriority(t *testing.T) {
	for _, maxBatch := range []int{1, 16} {
		t.Run(fmt.Sprintf("maxBatch=%d", maxBatch), func(t *testing.T) {
			srv := newTestServer(t, Config{
				Pool:         PoolConfig{Size: 1},
				MaxBatch:     maxBatch,
				MaxBatchWait: time.Millisecond,
				Tenancy: &tenant.Config{Tenants: []tenant.Spec{
					{ID: "bulk", Class: tenant.Batch},
					{ID: "live", Class: tenant.Realtime},
				}},
			})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			body := detectBody(t, testWindows(t, trace.Trojan, 0, 4))

			// Saturate: hold the gate's only unit, as a running batch would.
			if err := srv.gate.Acquire(context.Background(), tenant.Realtime); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			send := func(id string) {
				defer wg.Done()
				var resp *http.Response
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
				if err == nil {
					req.Header.Set(tenantHeader, id)
					resp, err = ts.Client().Do(req)
				}
				if err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", id, resp.StatusCode)
				}
			}
			waitQueued := func(c tenant.Class) {
				deadline := time.Now().Add(5 * time.Second)
				for srv.gate.Waiting(c) == 0 {
					if time.Now().After(deadline) {
						t.Fatalf("no %s lane queued at the gate", c)
					}
					time.Sleep(time.Millisecond)
				}
			}
			wg.Add(2)
			go send("bulk")
			waitQueued(tenant.Batch)
			go send("live")
			waitQueued(tenant.Realtime)

			// The freed unit goes to the realtime flush; the earlier bulk
			// flush keeps waiting until that batch has run. The gate holds
			// as many units as the pool has slots, so this is the order
			// the two lanes are checked out in. Holding the pool's only
			// slot parks the granted flush at checkout, so it cannot run
			// and hand the unit on to the bulk flush before the read.
			slot, err := srv.pool.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			srv.gate.Release()
			if rt, bulk := srv.gate.Waiting(tenant.Realtime), srv.gate.Waiting(tenant.Batch); rt != 0 || bulk != 1 {
				t.Errorf("after one release: %d realtime, %d batch lanes waiting; want the realtime lane granted first", rt, bulk)
			}
			srv.pool.Release(slot)
			wg.Wait()
		})
	}
}

// TestBatchedCancelMidBatch abandons a 16-lane request while its batch
// is in flight, first parked at checkout and then running: dispatch
// returns at once, every lane still completes into the request's
// shared channel without blocking the flusher, the server's detection
// goroutines drain, and the pool serves the next request.
func TestBatchedCancelMidBatch(t *testing.T) {
	srv := newTestServer(t, Config{Pool: PoolConfig{Size: 1}, MaxBatch: 16, MaxBatchWait: time.Hour})
	defer srv.Close()
	progs := make([]DecodedProgram, 16)
	for i := range progs {
		progs[i] = DecodedProgram{ID: strconv.Itoa(i), Windows: testWindows(t, trace.Trojan, i, 64)}
	}
	type result struct {
		out batchOutcome
		err error
	}
	start := func(ctx context.Context) <-chan result {
		res := make(chan result, 1)
		go func() {
			out, err := srv.batcher.dispatch(ctx, tenant.Batch, "", progs)
			res <- result{out, err}
		}()
		return res
	}
	await := func(what string, res <-chan result) result {
		t.Helper()
		select {
		case r := <-res:
			return r
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: dispatch did not return", what)
			return result{}
		}
	}
	drain := func(what string) {
		t.Helper()
		idle := make(chan struct{})
		go func() {
			srv.detWG.Wait()
			close(idle)
		}()
		select {
		case <-idle:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: detection goroutines did not drain", what)
		}
	}
	slot := srv.Pool().Slots()[0]

	// Parked at checkout: the test holds the pool's only slot.
	held, err := srv.pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := start(ctx)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if full, _ := srv.Metrics().BatchFlushes(); full == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the 16-lane request never flushed")
		}
	}
	cancel()
	if r := await("parked", res); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("parked: err = %v, want context.Canceled", r.err)
	}
	drain("parked")
	srv.pool.Release(held)
	if n := slot.Sup.Health().Detections; n != 0 {
		t.Fatalf("parked: %d detections ran, want 0", n)
	}

	// Running: cancel once the batch holds the slot.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	res = start(ctx)
	ran := false
	for deadline := time.Now().Add(5 * time.Second); !ran && slot.busy.Load() == 0; runtime.Gosched() {
		select {
		case r := <-res:
			// Finished before the poll saw the slot busy: nothing to
			// abandon this time.
			if r.err != nil {
				t.Fatal(r.err)
			}
			ran = true
			t.Log("batch finished before it could be cancelled")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the batch never checked out the slot")
		}
	}
	if !ran {
		cancel()
		if r := await("running", res); r.err != nil && !errors.Is(r.err, context.Canceled) {
			t.Fatalf("running: err = %v, want context.Canceled or success", r.err)
		}
	}
	drain("running")
	if n := slot.Sup.Health().Detections; n == 0 {
		t.Fatal("running: the batch never ran")
	}
	if r := await("next", start(context.Background())); r.err != nil || len(r.out.results) != len(progs) {
		t.Fatalf("next request: %d results, err %v", len(r.out.results), r.err)
	}
}
