package main

import (
	"bufio"
	"context"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxRequests bounds the requests one phase can record; the latency
// arrays are allocated once, before timing, so recording never
// allocates on the measured path.
const maxRequests = 1 << 18

// failedNS marks a request that failed or was refused: it counts as
// missing any latency limit, so percentiles rank it above every
// completed request.
const failedNS = math.MaxInt64

// opFunc sends request k and verifies the reply. It returns the
// request kind (an index into workload.kinds), whether the request
// failed or was refused, and a non-nil error only when the reply was
// wrong — a failed output check, which aborts the run.
type opFunc func(ctx context.Context, k int, tr *tracer) (kind int, failed bool, err error)

// tally accumulates the served verdicts' quality within one phase.
// Workers add to it concurrently; it is read once every worker has
// finished.
type tally struct {
	// Program verdicts (DETECT results), the unit of the paper's
	// accuracy claim, and stream verdicts (one detection period each).
	program, window quality
	unprotected     atomic.Int64 // over all verdicts
	attempts        atomic.Int64 // over all verdicts
	shed            atomic.Int64 // requests refused by tenant admission
}

// quality counts verdicts and how many the served and the nominal
// detector got right.
type quality struct {
	verdicts atomic.Int64
	correct  atomic.Int64 // served verdict equals the ground-truth label
	nominal  atomic.Int64 // nominal detector, same inputs, equals the label
}

func (q *quality) read() qualityStats {
	return qualityStats{q.verdicts.Load(), q.correct.Load(), q.nominal.Load()}
}

type qualityStats struct{ verdicts, correct, nominal int64 }

func (q qualityStats) plus(o qualityStats) qualityStats {
	return qualityStats{q.verdicts + o.verdicts, q.correct + o.correct, q.nominal + o.nominal}
}

func (q qualityStats) accuracy() float64 { return float64(q.correct) / float64(max(q.verdicts, 1)) }
func (q qualityStats) nominalAccuracy() float64 {
	return float64(q.nominal) / float64(max(q.verdicts, 1))
}

func (t *tally) reset() { *t = tally{} }

// recorder holds one phase's per-request measurements, indexed by
// request number.
type recorder struct {
	lat  []int64 // ns from due (open loop) or send (closed loop) to verified reply
	kind []uint8
	late []int64 // open loop: ns the generator handed request k out after its due time
	n    atomic.Int64

	mu  sync.Mutex
	err error // first failed output check
}

func newRecorder() *recorder {
	return &recorder{
		lat:  make([]int64, maxRequests),
		kind: make([]uint8, maxRequests),
		late: make([]int64, maxRequests),
	}
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// reset readies the recorder for a new phase.
func (r *recorder) reset() {
	n := r.n.Load()
	clear(r.lat[:n])
	clear(r.kind[:n])
	clear(r.late[:n])
	r.n.Store(0)
	r.err = nil
}

// do runs request first+k and records it at k against the time it was
// due.
func (r *recorder) do(ctx context.Context, op opFunc, k, first int, due time.Time, tr *tracer) {
	kind, failed, err := op(ctx, first+k, tr)
	d := time.Since(due).Nanoseconds()
	if err != nil {
		r.fail(err)
	}
	if failed {
		d = failedNS
	}
	r.lat[k] = d
	r.kind[k] = uint8(kind)
}

// openLoop sends requests on a fixed schedule of rate per second for
// dur: one generator paces due times and hands each request to a
// worker; a request is timed from its due time, so a stall that delays
// later sends is charged to them (coordinated omission is counted).
// workers bounds the requests in flight; they are goroutines, not OS
// threads. Requests are numbered from first.
func openLoop(ctx context.Context, r *recorder, op opFunc, rate float64, dur time.Duration, workers, first int, tr *tracer) {
	n := min(int(rate*dur.Seconds()), maxRequests)
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				r.do(ctx, op, k, first, start.Add(time.Duration(float64(k)*interval)), tr)
			}
		}()
	}
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(float64(k) * interval))
		if d := time.Until(due); d > 0 {
			preciseSleep(d)
		}
		jobs <- k
		r.late[k] = time.Since(due).Nanoseconds()
		r.n.Store(int64(k + 1))
	}
	close(jobs)
	wg.Wait()
}

// step is n consecutive requests of one kind on one connection.
type step struct {
	op opFunc
	n  int
}

// preciseSleep blocks the calling goroutine's thread in nanosleep(2).
// Go timers wake an idle process on epoll's millisecond clock, which
// would make the generator itself run up to a millisecond late on
// every request; a high-resolution kernel sleep keeps the schedule.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop runs rounds until dur elapses. In a round every lane runs
// its steps in order, one request in flight per lane, and the round
// ends when every lane has finished, so each round does the same work
// whatever the relative speed of the request kinds. Requests are
// numbered from first.
func closedLoop(ctx context.Context, r *recorder, lanes [][]step, dur time.Duration, first int, tr *tracer) {
	end := time.Now().Add(dur)
	var next atomic.Int64
	var full atomic.Bool
	for ctx.Err() == nil && !full.Load() && time.Now().Before(end) {
		var wg sync.WaitGroup
		for _, lane := range lanes {
			wg.Add(1)
			go func(lane []step) {
				defer wg.Done()
				for _, s := range lane {
					for i := 0; i < s.n; i++ {
						k := int(next.Add(1) - 1)
						if k >= maxRequests {
							full.Store(true)
							return
						}
						r.do(ctx, s.op, k, first, time.Now(), tr)
					}
				}
			}(lane)
		}
		wg.Wait()
	}
	r.n.Store(min(next.Load(), maxRequests))
}

// phaseStats is what one measured phase produced.
type phaseStats struct {
	attempted, ok, failed int
	wall                  time.Duration
	lat                   []int64   // sorted, failures included as failedNS
	latByKind             [][]int64 // sorted, per request kind
	late                  []int64   // sorted (open loop only)
	cpu                   time.Duration
	mallocs               uint64
	stealPct              float64

	program, window                       qualityStats
	verdicts, unprotected, attempts, shed int64
}

// usage is a point-in-time reading of the process cost counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	steal   cpuTimes
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		steal:   readCPUTimes(),
	}
}

// processCPU is the user+sys CPU time the process has used so far, on
// all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTimes is the machine-wide steal and total jiffies from the first
// line of /proc/stat.
type cpuTimes struct {
	steal, total uint64
	ok           bool
}

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// guest and guest_nice (fields 9, 10) are already inside user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealPct is the share of machine CPU time stolen by the hypervisor
// between two readings (-1 when /proc/stat is unavailable).
func stealPct(a, b cpuTimes) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// collect turns a finished phase's recorder and counters into stats.
func collect(r *recorder, nkinds int, t *tally, before, after usage) phaseStats {
	n := int(r.n.Load())
	st := phaseStats{
		attempted:   n,
		wall:        after.at.Sub(before.at),
		cpu:         after.cpu - before.cpu,
		mallocs:     after.mallocs - before.mallocs,
		stealPct:    stealPct(before.steal, after.steal),
		program:     t.program.read(),
		window:      t.window.read(),
		unprotected: t.unprotected.Load(),
		attempts:    t.attempts.Load(),
		shed:        t.shed.Load(),
	}
	st.verdicts = st.program.verdicts + st.window.verdicts
	st.lat = append([]int64(nil), r.lat[:n]...)
	st.latByKind = make([][]int64, nkinds)
	for k := 0; k < n; k++ {
		if r.lat[k] == failedNS {
			st.failed++
		} else {
			st.ok++
		}
		st.latByKind[r.kind[k]] = append(st.latByKind[r.kind[k]], r.lat[k])
	}
	sortInts(st.lat)
	for _, l := range st.latByKind {
		sortInts(l)
	}
	st.late = append([]int64(nil), r.late[:n]...)
	sortInts(st.late)
	return st
}

// merge folds phase b into a: counts add up and samples join.
func (a *phaseStats) merge(b phaseStats) {
	if w := a.wall + b.wall; w > 0 {
		a.stealPct = (a.stealPct*a.wall.Seconds() + b.stealPct*b.wall.Seconds()) / w.Seconds()
	}
	a.attempted += b.attempted
	a.ok += b.ok
	a.failed += b.failed
	a.wall += b.wall
	a.cpu += b.cpu
	a.mallocs += b.mallocs
	a.lat = mergeSorted(a.lat, b.lat)
	a.late = mergeSorted(a.late, b.late)
	if a.latByKind == nil {
		a.latByKind = make([][]int64, len(b.latByKind))
	}
	for i := range b.latByKind {
		a.latByKind[i] = mergeSorted(a.latByKind[i], b.latByKind[i])
	}
	a.program = a.program.plus(b.program)
	a.window = a.window.plus(b.window)
	a.verdicts += b.verdicts
	a.unprotected += b.unprotected
	a.attempts += b.attempts
	a.shed += b.shed
}

func mergeSorted(a, b []int64) []int64 {
	out := append(append(make([]int64, 0, len(a)+len(b)), a...), b...)
	sortInts(out)
	return out
}

func sortInts(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantileMS is the nearest-rank q-quantile of sorted ns samples, in
// ms (-1 when it falls on a failed request; 0 without samples).
func quantileMS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	if sorted[i] == failedNS {
		return -1
	}
	return float64(sorted[i]) / 1e6
}

// median of a slice of floats (it is sorted in place).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
