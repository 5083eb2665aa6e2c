// Command perfbench measures the served detection path end to end: it
// starts the real serving stack in-process (serve.Server on its HTTP
// and SHMDWIRE listeners, route.Router over two backends, pkg/sdk
// clients), drives one named workload from a single load-generating
// process, checks every reply, and prints the metrics as one JSON
// object on the last line of standard output.
//
//	perfbench -workload wire_detect|json_routed|stream_scan -seed N -seconds S -trace 0|1 [-spans DIR]
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// alternates untraced and traced one-second slices, replays one request
// of the workload through each module's public functions, and prints
// the per-layer metrics, writing the spans to DIR. README.md maps each
// layer metric to the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times a run builds the whole stack; setup_s
// is the median of their process CPU times.
const setupRepeats = 3

// warmup runs the workload untimed before measuring, so connections,
// pools and caches are warm.
const warmup = time.Second

// maxAccuracyLoss is the paper's bound on the accuracy the stochastic
// detector may lose against the nominal one (<2%).
const maxAccuracyLoss = 0.02

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: wire_detect, json_routed or stream_scan")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: orders the traffic and seeds the pool's fault streams")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("seconds must be at least 1, got %d", cfg.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	return cfg, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the untraced run's metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"accuracy", "ratio"},
	{"protected_ratio", "ratio"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "count"},
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run. It writes the run-validity record
// and then the report line to stdout, and nothing to stdout when any
// output check fails.
func run(cfg config, stdout io.Writer) error {
	wl := workloads[cfg.workload]
	nproc := runtime.NumCPU()
	conns := nproc

	var setupCPU, setupWall []float64
	var stages []setupStages
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		// Collect the previous stack's garbage first, so that work is
		// not charged to this set-up.
		runtime.GC()
		s, err := newStack(wl, cfg.seed, conns)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, s.stages.cpu)
		setupWall = append(setupWall, s.stages.total)
		stages = append(stages, s.stages)
		if i < setupRepeats-1 {
			if err := s.close(); err != nil {
				return fmt.Errorf("stopping set-up stack: %w", err)
			}
			continue
		}
		st = s
	}
	defer st.close()

	ld, err := wl.newLoader(st, cfg.seed, conns)
	if err != nil {
		return err
	}
	ctx := context.Background()
	rec := newRecorder()
	if _, err := measure(ctx, ld, rec, warmup, 0, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	dur := time.Duration(cfg.seconds) * time.Second
	rep := report{Correct: true, Metrics: map[string]metric{}}
	var info map[string]any
	if cfg.trace {
		lm, base, extra, err := traced(ctx, cfg, st, ld, rec, dur)
		if err != nil {
			return err
		}
		info = runInfo(cfg, wl, nproc, base)
		for k, v := range extra {
			info[k] = v
		}
		lm.setupStages(stages)
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{Value: lm[m.name], Unit: m.unit}
		}
		rep.Attempted, rep.Failed = int(lm["loadgen.sent"]), int(lm["loadgen.failed"])
	} else {
		base, err := measure(ctx, ld, rec, dur, 0, nil)
		if err != nil {
			return err
		}
		if err := checkServed(st, base); err != nil {
			return err
		}
		vals, err := endToEndValues(setupCPU, base)
		if err != nil {
			return err
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		info = runInfo(cfg, wl, nproc, base)
		rep.Attempted, rep.Failed = base.attempted, base.failed
	}
	info["setup_cpu_s"] = setupCPU
	info["setup_wall_s"] = setupWall
	if err := st.close(); err != nil {
		return fmt.Errorf("stopping stack: %w", err)
	}

	line, err := json.Marshal(map[string]any{"run": info})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if line, err = json.Marshal(rep); err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// measure runs the loader's requests for dur, numbering requests from
// first, with a fresh tally and returns the phase's stats; a failed
// output check during the phase is its error.
func measure(ctx context.Context, ld *loader, rec *recorder, dur time.Duration, first int, tr *tracer) (phaseStats, error) {
	rec.reset()
	ld.tally.reset()
	runtime.GC()
	before := readUsage()
	if ld.open != nil {
		openLoop(ctx, rec, ld.open, ld.wl.rate, dur, openWorkers, first, tr)
	} else {
		closedLoop(ctx, rec, ld.lanes, dur, first, tr)
	}
	after := readUsage()
	if rec.err != nil {
		return phaseStats{}, fmt.Errorf("output check: %w", rec.err)
	}
	return collect(rec, len(ld.wl.kinds), &ld.tally, before, after), nil
}

// checkServed runs the whole-run output checks: no pool ever handed a
// session out twice, and the served accuracy stays within the paper's
// loss bound of the nominal detector's on the same inputs.
func checkServed(st *stack, ph phaseStats) error {
	for i, b := range st.backends {
		if n := b.Pool().DoubleCheckouts(); n != 0 {
			return fmt.Errorf("output check: backend %d double checkouts = %d, want 0", i, n)
		}
	}
	q := ph.program
	if q.verdicts == 0 {
		return errors.New("output check: no program verdicts served")
	}
	if q.accuracy() < q.nominalAccuracy()-maxAccuracyLoss {
		return fmt.Errorf("output check: served accuracy %.4f is more than %.2f below the nominal detector's %.4f on the same %d programs",
			q.accuracy(), maxAccuracyLoss, q.nominalAccuracy(), q.verdicts)
	}
	return nil
}

// endToEndValues computes the untraced run's metrics from the set-ups'
// CPU times and the measured phase.
func endToEndValues(setupCPU []float64, ph phaseStats) (map[string]float64, error) {
	if ph.ok == 0 {
		return nil, errors.New("no request succeeded")
	}
	ok := float64(ph.ok)
	return map[string]float64{
		"setup_s":         median(append([]float64(nil), setupCPU...)),
		"ok_ratio":        ok / float64(ph.attempted),
		"accuracy":        ph.program.accuracy(),
		"protected_ratio": 1 - float64(ph.unprotected)/float64(ph.verdicts),
		"cpu_us_per_req":  float64(ph.cpu.Microseconds()) / ok,
		"allocs_per_req":  float64(ph.mallocs) / ok,
	}, nil
}

// runInfo is the run-validity record printed before the report: the
// machine shape, how much CPU the hypervisor stole, how late the
// generator ran, and the end-to-end numbers too noisy on a shared box
// to hold a bound, each with its unit.
func runInfo(cfg config, wl *workload, nproc int, ph phaseStats) map[string]any {
	arrival, load := "closed", fmt.Sprintf("%d connections, one request in flight each", nproc)
	if wl.rate > 0 {
		arrival, load = "open", fmt.Sprintf("%g req/s", wl.rate)
	}
	m := func(v float64, unit string) metric { return metric{Value: v, Unit: unit} }
	kinds := map[string]any{}
	for i, name := range wl.kinds {
		kinds[name] = map[string]any{
			"samples": len(ph.latByKind[i]),
			"p50_ms":  m(quantileMS(ph.latByKind[i], 0.5), "ms"),
			"p99_ms":  m(quantileMS(ph.latByKind[i], 0.99), "ms"),
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"arrival":    arrival,
		"load":       load,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"samples":    ph.attempted,
		"kinds":      kinds,
		"metrics": map[string]metric{
			"p50_ms":                  m(quantileMS(ph.lat, 0.5), "ms"),
			"p99_ms":                  m(quantileMS(ph.lat, 0.99), "ms"),
			"ok_per_s":                m(float64(ph.ok)/ph.wall.Seconds(), "req/s"),
			"error_ratio":             m(float64(ph.failed)/float64(max(ph.attempted, 1)), "ratio"),
			"unprotected_ratio":       m(float64(ph.unprotected)/float64(max(ph.verdicts, 1)), "ratio"),
			"steal_pct":               m(ph.stealPct, "%"),
			"late_p50_ms":             m(quantileMS(ph.late, 0.5), "ms"),
			"late_p99_ms":             m(quantileMS(ph.late, 0.99), "ms"),
			"nominal_accuracy":        m(ph.program.nominalAccuracy(), "ratio"),
			"window_accuracy":         m(ph.window.accuracy(), "ratio"),
			"nominal_window_accuracy": m(ph.window.nominalAccuracy(), "ratio"),
		},
	}
}
