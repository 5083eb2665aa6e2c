package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"shmd/internal/experiments"
	"shmd/internal/faults"
	"shmd/internal/features"
	"shmd/internal/rng"
	"shmd/internal/serve"
	"shmd/internal/tenant"
	"shmd/internal/trace"
	"shmd/internal/wire"
)

// perLayer names the traced run's metrics and their units, grouped by
// the module they measure. README.md gives the end-to-end metric and
// workload each should move.
var perLayer = []struct{ name, unit string }{
	// Latency and throughput of the untraced half: user-facing, but too
	// sensitive to the hypervisor's steal on a shared box to gate.
	{"loadgen.p50_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.ok_per_s", "req/s"},
	// Harness validity: did the run measure the program or the machine?
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.error_ratio", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.steal_pct", "%"},
	{"run.nproc", "count"},
	{"run.gomaxprocs", "count"},
	// Set-up stages (median over the run's set-ups).
	{"dataset.generate_s", "s"},
	{"hmd.train_s", "s"},
	{"serve.new_s", "s"},
	{"route.ready_s", "s"},
	// Codecs, replayed on the workload's request shape.
	{"wire.detect_encode_us", "us"},
	{"wire.detect_decode_us", "us"},
	{"wire.detect_decode_allocs", "count"},
	{"wire.stream_decode_us", "us"},
	{"wire.verdict_encode_us", "us"},
	{"wire.verdict_decode_us", "us"},
	{"serve.json_decode_us", "us"},
	{"serve.json_decode_allocs", "count"},
	// Client latency split by request kind.
	{"sdk.scan_p50_ms", "ms"},
	{"sdk.push_p50_ms", "ms"},
	// Server: checkout, batcher, server-side time, refusals.
	{"serve.checkout_us", "us"},
	{"serve.lanes_per_batch", "count"},
	{"serve.timer_flush_ratio", "ratio"},
	{"serve.batch_wait_p50_us", "us"},
	{"serve.batch_wait_mean_us", "us"},
	{"serve.detect_p50_us", "us"},
	{"serve.queue_rejects", "count"},
	{"serve.double_checkouts", "count"},
	{"serve.unprotected_ratio", "ratio"},
	{"serve.unaccounted_us", "us"},
	// Tenant admission.
	{"tenant.admit_us", "us"},
	{"tenant.shed_ratio", "ratio"},
	// Detector: supervisor batch lanes, features, kernel, faults.
	{"core.lane_us.b1", "us"},
	{"core.lane_us.b16", "us"},
	{"core.attempts_per_verdict", "count"},
	{"hmd.nominal_accuracy", "ratio"},
	{"serve.window_accuracy", "ratio"},
	{"hmd.nominal_window_accuracy", "ratio"},
	{"features.extract_us", "us"},
	{"fann.window_ns.b16", "ns"},
	{"faults.observed_rate", "ratio"},
	// Router.
	{"route.hop_ms", "ms"},
	{"route.retries", "count"},
	{"route.hedges", "count"},
	{"route.sheds", "count"},
	{"route.ejections", "count"},
	// Cost of tracing itself: traced slices against untraced slices.
	{"trace.overhead_cpu_pct", "%"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.spans", "count"},
}

// layerValues holds the per-layer metrics by name.
type layerValues map[string]float64

// setupStages records the median of each set-up stage.
func (lm layerValues) setupStages(stages []setupStages) {
	pick := func(f func(s setupStages) float64) float64 {
		v := make([]float64, len(stages))
		for i, s := range stages {
			v[i] = f(s)
		}
		return median(v)
	}
	lm["dataset.generate_s"] = pick(func(s setupStages) float64 { return s.generate })
	lm["hmd.train_s"] = pick(func(s setupStages) float64 { return s.train })
	lm["serve.new_s"] = pick(func(s setupStages) float64 { return s.serveNew })
	lm["route.ready_s"] = pick(func(s setupStages) float64 { return s.routeReady })
}

// traceSlice is the longest untraced or traced slice of a traced run. Alternating short slices puts drift in the machine's
// speed on both sides alike, so their difference is the tracing cost.
const traceSlice = time.Second

// traced measures a -trace 1 run and computes every per-layer metric.
// It alternates untraced and traced slices for dur: client latencies
// come from the untraced slices (returned as base), spans from the
// traced ones, and server-side histograms and counters from the whole
// period. Metrics of modules the workload does not exercise stay 0.
func traced(ctx context.Context, cfg config, st *stack, ld *loader, rec *recorder, dur time.Duration) (layerValues, phaseStats, map[string]any, error) {
	lm := layerValues{}
	tr := newTracer()
	var base, ph phaseStats

	scrapeBefore, err := scrape(st)
	if err != nil {
		return nil, base, nil, err
	}
	fullBefore, timerBefore := flushes(st)
	rtBefore := routerCounters(st)

	first := 0
	n := max(2, int(dur/traceSlice)) // at least one slice of each kind
	for i := 0; i < n; i++ {
		slice, t := &base, (*tracer)(nil)
		if i%2 == 1 {
			slice, t = &ph, tr
		}
		s, err := measure(ctx, ld, rec, dur/time.Duration(n), first, t)
		if err != nil {
			return nil, base, nil, err
		}
		slice.merge(s)
		first += s.attempted
	}
	var all phaseStats
	for _, p := range []phaseStats{base, ph} {
		if err := checkServed(st, p); err != nil {
			return nil, base, nil, err
		}
		all.merge(p)
	}
	scrapeAfter, err := scrape(st)
	if err != nil {
		return nil, base, nil, err
	}
	fullAfter, timerAfter := flushes(st)
	rtAfter := routerCounters(st)

	lm["loadgen.p50_ms"] = quantileMS(base.lat, 0.5)
	lm["loadgen.p99_ms"] = quantileMS(base.lat, 0.99)
	lm["loadgen.ok_per_s"] = float64(base.ok) / base.wall.Seconds()
	lm["loadgen.sent"] = float64(all.attempted)
	lm["loadgen.ok"] = float64(all.ok)
	lm["loadgen.failed"] = float64(all.failed)
	lm["loadgen.error_ratio"] = float64(all.failed) / float64(max(all.attempted, 1))
	lm["loadgen.late_p99_ms"] = quantileMS(all.late, 0.99)
	lm["loadgen.steal_pct"] = all.stealPct
	lm["run.nproc"] = float64(runtime.NumCPU())
	lm["run.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	// Server side, as /metrics and the counters report it over the
	// whole period.
	d := scrapeAfter.minus(scrapeBefore)
	if c := d["shmd_batch_size_count"]; c > 0 {
		lm["serve.lanes_per_batch"] = d["shmd_batch_size_sum"] / c
	}
	if n := (fullAfter - fullBefore) + (timerAfter - timerBefore); n > 0 {
		lm["serve.timer_flush_ratio"] = float64(timerAfter-timerBefore) / float64(n)
	}
	// The p50 is interpolated inside a histogram bucket (0.5-1 ms and
	// 1-2.5 ms around MaxBatchWait); the mean is exact.
	lm["serve.batch_wait_p50_us"] = d.histQuantile("shmd_batch_wait_seconds", 0.5) * 1e6
	if c := d["shmd_batch_wait_seconds_count"]; c > 0 {
		lm["serve.batch_wait_mean_us"] = d["shmd_batch_wait_seconds_sum"] / c * 1e6
	}
	lm["serve.detect_p50_us"] = d.histQuantile("shmd_detect_duration_seconds", 0.5) * 1e6
	lm["serve.queue_rejects"] = d["shmd_queue_rejects_total"]
	var doubles uint64
	for _, b := range st.backends {
		doubles += b.Pool().DoubleCheckouts()
	}
	lm["serve.double_checkouts"] = float64(doubles)
	lm["serve.unprotected_ratio"] = float64(all.unprotected) / float64(max(all.verdicts, 1))
	lm["core.attempts_per_verdict"] = float64(all.attempts) / float64(max(all.verdicts, 1))
	lm["hmd.nominal_accuracy"] = all.program.nominalAccuracy()
	lm["serve.window_accuracy"] = all.window.accuracy()
	lm["hmd.nominal_window_accuracy"] = all.window.nominalAccuracy()
	lm["faults.observed_rate"] = observedRate(st)

	if st.router != nil {
		for i, name := range []string{"route.retries", "route.hedges", "route.sheds", "route.ejections"} {
			lm[name] = float64(rtAfter[i] - rtBefore[i])
		}
	}
	if ld.wl.name == "wire_detect" {
		lm["tenant.shed_ratio"] = float64(all.shed) / float64(max(all.attempted, 1))
	}
	if ld.wl.name == "stream_scan" {
		lm["sdk.scan_p50_ms"] = quantileMS(base.latByKind[0], 0.5)
		lm["sdk.push_p50_ms"] = quantileMS(base.latByKind[1], 0.5)
	}

	lm["trace.spans"] = float64(tr.count())
	baseCPU := float64(base.cpu.Microseconds()) / float64(max(base.ok, 1))
	phCPU := float64(ph.cpu.Microseconds()) / float64(max(ph.ok, 1))
	lm["trace.overhead_cpu_pct"] = 100 * (phCPU - baseCPU) / baseCPU
	lm["trace.overhead_p50_ms"] = quantileMS(ph.lat, 0.5) - quantileMS(base.lat, 0.5)

	// The router hop: the same requests at the same rate straight to
	// backend 0, against the routed traced phase. Only the direct
	// phase's latency is read.
	if ld.direct != nil {
		direct, err := measure(ctx, &loader{wl: ld.wl, open: ld.direct}, rec, dur/4, first, tr)
		if err != nil {
			return nil, base, nil, err
		}
		lm["route.hop_ms"] = quantileMS(ph.lat, 0.5) - quantileMS(direct.lat, 0.5)
	}

	if err := replayLayers(lm, st, ld, tr); err != nil {
		return nil, base, nil, err
	}
	lm.unaccounted(ld.wl.name, base)

	path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, base, nil, fmt.Errorf("writing spans: %w", err)
	}
	self := tr.selfNS()
	selfMS := make(map[string]float64, len(self))
	for k, v := range self {
		selfMS[k] = float64(v) / 1e6
	}
	return lm, base, map[string]any{"spans_file": path, "span_self_ms": selfMS}, nil
}

// replayLayers times one request of the workload through each module's
// public functions, outside the load, with a span per timed round.
func replayLayers(lm layerValues, st *stack, ld *loader, tr *tracer) error {
	sh := ld.shape
	if sh.detect != nil {
		payload, err := wire.AppendDetectRequest(nil, *sh.detect)
		if err != nil {
			return err
		}
		lm["wire.detect_encode_us"] = timeCall(tr, "wire.AppendDetectRequest", 200, func() {
			wire.AppendDetectRequest(nil, *sh.detect)
		}) / 1e3
		lm["wire.detect_decode_us"] = timeCall(tr, "wire.DecodeDetectRequest", 200, func() {
			wire.DecodeDetectRequest(payload)
		}) / 1e3
		lm["wire.detect_decode_allocs"] = testing.AllocsPerRun(50, func() { wire.DecodeDetectRequest(payload) })

		v := wire.Verdict{Session: 1, Tenant: sh.detect.Tenant}
		for _, p := range sh.detect.Programs {
			v.Results = append(v.Results, wire.VerdictResult{ID: p.ID, Malware: true, Score: 0.75, Confidence: 0.5, Attempts: 1, Windows: uint32(len(p.Windows))})
		}
		vp, err := wire.AppendVerdict(nil, v)
		if err != nil {
			return err
		}
		lm["wire.verdict_encode_us"] = timeCall(tr, "wire.AppendVerdict", 200, func() { wire.AppendVerdict(nil, v) }) / 1e3
		lm["wire.verdict_decode_us"] = timeCall(tr, "wire.DecodeVerdict", 200, func() { wire.DecodeVerdict(vp) }) / 1e3
	}
	if sh.stream != nil {
		sp, err := wire.AppendStreamRequest(nil, *sh.stream)
		if err != nil {
			return err
		}
		lm["wire.stream_decode_us"] = timeCall(tr, "wire.DecodeStreamRequest", 200, func() { wire.DecodeStreamRequest(sp) }) / 1e3
	}
	cfg := st.env.Base.Config()
	if sh.json != nil {
		lim := serve.Limits{MinWindows: cfg.Period}
		lm["serve.json_decode_us"] = timeCall(tr, "serve.DecodeDetectRequest", 100, func() {
			serve.DecodeDetectRequest(bytes.NewReader(sh.json), lim)
		}) / 1e3
		lm["serve.json_decode_allocs"] = testing.AllocsPerRun(20, func() {
			serve.DecodeDetectRequest(bytes.NewReader(sh.json), lim)
		})
	}
	if sh.tenants != nil {
		ns, err := replayAdmission(tr, sh.tenants)
		if err != nil {
			return err
		}
		lm["tenant.admit_us"] = ns / 1e3
	}

	// A private pool in the workload's shape: checkout and the
	// supervisor's batch path at 1 and 16 lanes.
	pool, err := serve.NewPool(st.env.Base, serve.PoolConfig{Size: 4, ErrorRate: experiments.OperatingErrorRate, Seed: 0x5EED})
	if err != nil {
		return err
	}
	defer pool.Close()
	ctx := context.Background()
	var acqErr error
	lm["serve.checkout_us"] = timeCall(tr, "serve.Pool.Acquire+Release", 1000, func() {
		slot, err := pool.Acquire(ctx)
		if err != nil {
			acqErr = err
			return
		}
		pool.Release(slot)
	}) / 1e3
	if acqErr != nil {
		return acqErr
	}
	slot, err := pool.Acquire(ctx)
	if err != nil {
		return err
	}
	lanes := make([][]trace.WindowCounts, 16)
	for j := range lanes {
		lanes[j] = ld.in.progs[ld.in.order[j]].Windows
	}
	var supErr error
	detect := func(n int) func() {
		return func() {
			if _, _, err := slot.Sup.DetectBatch(lanes[:n], false); err != nil {
				supErr = err
			}
		}
	}
	lm["core.lane_us.b1"] = timeCall(tr, "core.Supervisor.DetectBatch.b1", 50, detect(1)) / 1e3
	lm["core.lane_us.b16"] = timeCall(tr, "core.Supervisor.DetectBatch.b16", 5, detect(16)) / 16 / 1e3
	pool.Release(slot)
	if supErr != nil {
		return supErr
	}

	vecs, err := features.Extract(lanes[0], cfg.FeatureSet, cfg.Period)
	if err != nil {
		return err
	}
	lm["features.extract_us"] = timeCall(tr, "features.Extract", 200, func() {
		features.Extract(lanes[0], cfg.FeatureSet, cfg.Period)
	}) / 1e3
	inputs := make([][]float64, 16)
	for j := range inputs {
		inputs[j] = vecs[j%len(vecs)]
	}
	srcs := make([]rand.Source64, 16)
	for l := range srcs {
		srcs[l] = rng.NewSource64(0x5EED, uint64(l))
	}
	binj, err := faults.NewBatchInjector(experiments.OperatingErrorRate, nil, srcs)
	if err != nil {
		return err
	}
	fn := st.env.Base.Fixed().Clone()
	out := make([]float64, 16*fn.NumOutputs())
	lm["fann.window_ns.b16"] = timeCall(tr, "fann.FixedNetwork.RunBatch.b16", 200, func() {
		fn.RunBatch(binj, inputs, nil, out)
	}) / 16
	return nil
}

// replayAdmission replays the workload's tenant sequence through a
// fresh tenant.Registry configured as the server's, on a virtual clock
// advancing at the workload's offered rate, and returns ns per
// Admit+Release.
func replayAdmission(tr *tracer, seq []string) (float64, error) {
	now := time.Unix(0, 0)
	reg, err := tenant.NewRegistry(tenant.Config{Tenants: tenants, Now: func() time.Time { return now }})
	if err != nil {
		return 0, err
	}
	step := time.Second / wireRate
	i := 0
	return timeCall(tr, "tenant.Registry.Admit+Release", 1000, func() {
		now = now.Add(step)
		reg.Admit(seq[i%len(seq)], 0).Release()
		i++
	}), nil
}

// timeCall runs f n times per round over five rounds, records a span
// per round, and returns the median round's ns per call.
func timeCall(tr *tracer, name string, n int, f func()) float64 {
	per := make([]float64, 5)
	for r := range per {
		h := tr.begin(name, int64(r), -1)
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
		tr.end(h)
	}
	return median(per)
}

// unaccounted is client p50 minus the summed replayed stage times of
// the same request shape: the overhead no stage metric explains yet.
func (lm layerValues) unaccounted(workload string, ph phaseStats) {
	var p50us, stages float64
	switch workload {
	case "wire_detect":
		p50us = quantileMS(ph.lat, 0.5) * 1e3
		stages = lm["wire.detect_encode_us"] + lm["wire.detect_decode_us"] + lm["tenant.admit_us"] +
			lm["serve.batch_wait_mean_us"] + lm["serve.checkout_us"] + lm["core.lane_us.b1"] +
			lm["wire.verdict_encode_us"] + lm["wire.verdict_decode_us"]
	case "json_routed":
		p50us = quantileMS(ph.lat, 0.5) * 1e3
		stages = lm["serve.json_decode_us"] + lm["serve.checkout_us"] + lm["core.lane_us.b1"]
	case "stream_scan":
		// A 64-program scan flushes as four full 16-lane batches, which
		// run on four slots at once over GOMAXPROCS processors.
		p50us = lm["sdk.scan_p50_ms"] * 1e3
		par := float64(min(4, runtime.GOMAXPROCS(0)))
		stages = lm["wire.detect_encode_us"] + lm["wire.detect_decode_us"] +
			4*lm["serve.checkout_us"] + scanPrograms*lm["core.lane_us.b16"]/par +
			lm["wire.verdict_encode_us"] + lm["wire.verdict_decode_us"]
	}
	lm["serve.unaccounted_us"] = p50us - stages
}

// promSample is a /metrics scrape summed over backends.
type promSample map[string]float64

// scrape reads every backend's /metrics over HTTP and sums the series.
func scrape(st *stack) (promSample, error) {
	out := promSample{}
	for _, addr := range st.httpAddrs {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			out[line[:i]] += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
	}
	return out, nil
}

func (a promSample) minus(b promSample) promSample {
	d := promSample{}
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

// histQuantile estimates the q-quantile of a cumulative Prometheus
// histogram by linear interpolation inside the bucket holding it, as
// PromQL's histogram_quantile does (0 without observations).
func (s promSample) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

func flushes(st *stack) (full, timer uint64) {
	for _, b := range st.backends {
		f, t := b.Metrics().BatchFlushes()
		full += f
		timer += t
	}
	return full, timer
}

// routerCounters reads retries, hedges, sheds and ejections.
func routerCounters(st *stack) [4]uint64 {
	if st.router == nil {
		return [4]uint64{}
	}
	m := st.router.Metrics()
	return [4]uint64{m.Retries(), m.Hedges(), m.Sheds(), m.Ejections()}
}

// observedRate is the fault rate the live slots' injectors observed,
// over every multiplication they ran (canaries and scalar detections).
func observedRate(st *stack) float64 {
	var c faults.Counters
	for _, b := range st.backends {
		for _, slot := range b.Pool().Slots() {
			if inj, ok := slot.Det.Injector().(interface{ Stats() faults.Counters }); ok {
				s := inj.Stats()
				c.Muls += s.Muls
				c.Faults += s.Faults
			}
		}
	}
	return c.Rate()
}
