package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"shmd/internal/dataset"
	"shmd/internal/experiments"
	"shmd/internal/rng"
	"shmd/internal/serve"
	"shmd/internal/tenant"
	"shmd/internal/trace"
	"shmd/internal/wire"
	"shmd/pkg/sdk"
)

// Traffic shape constants, as BENCHMARK.json and README.md state them.
const (
	wireRate       = 800 // req/s offered by wire_detect
	jsonRate       = 200 // req/s offered by json_routed
	scanPrograms   = 64  // programs per stream_scan DETECT
	streamsPerConn = 32  // window streams held by each stream_scan pushing connection
	pushWindows    = 16  // windows per STREAM frame
	// pushesPerScan is the STREAM frames per scan in one stream_scan
	// round: the push:scan ratio that the two connections reached running
	// free, without rounds (13.4-14.5, median 14.1, over ten 15 s runs at
	// 0-30% steal; see README.md).
	pushesPerScan = 14
	tenantQuota   = 4 * wireRate
	openWorkers   = 64 // open-loop requests in flight at most (goroutines, not threads)
)

// tenants split wire_detect's load; each quota is at least 4x the
// tenant's offered rate, so admission never sheds the workload.
var tenants = []tenant.Spec{
	{ID: "realtime", Class: tenant.Realtime, Rate: tenantQuota, Burst: tenantQuota},
	{ID: "standard", Class: tenant.Standard, Rate: tenantQuota, Burst: tenantQuota},
}

// workload is one traffic mix against the serving stack.
type workload struct {
	name string
	rate float64 // open loop at this many req/s; 0 = closed loop
	// routed puts two backends behind a route.Router and sends JSON
	// over HTTP; otherwise the clients are pkg/sdk SHMDWIRE connections
	// to one backend.
	routed bool
	kinds  []string
	// serveConfig is backend b's configuration.
	serveConfig func(seed uint64, b int) serve.Config
}

func batchedConfig(seed uint64, b int) serve.Config {
	return serve.Config{
		Pool:         serve.PoolConfig{Size: 4, ErrorRate: experiments.OperatingErrorRate, Seed: rng.DeriveSeed(seed, 0xBE7C, uint64(b))},
		QueueDepth:   1024,
		MaxBatch:     16,
		MaxBatchWait: 500 * time.Microsecond,
		JitterSeed:   int64(seed) + 1,
	}
}

var workloads = map[string]*workload{
	"wire_detect": {
		name: "wire_detect", rate: wireRate,
		kinds: []string{"detect"},
		serveConfig: func(seed uint64, b int) serve.Config {
			cfg := batchedConfig(seed, b)
			cfg.Tenancy = &tenant.Config{Tenants: tenants}
			return cfg
		},
	},
	"json_routed": {
		name: "json_routed", rate: jsonRate, routed: true,
		kinds: []string{"detect"},
		// The CLI defaults of `shmd serve`: scalar dispatch, tenancy
		// off, queue 2x pool, slot lifecycle on.
		serveConfig: func(seed uint64, b int) serve.Config {
			return serve.Config{
				Pool: serve.PoolConfig{Size: 4, ErrorRate: experiments.OperatingErrorRate,
					Seed: rng.DeriveSeed(seed, 0xBE7C, uint64(b)), Lifecycle: serve.LifecycleConfig{Enabled: true}},
				JitterSeed: int64(seed) + 1,
			}
		},
	},
	"stream_scan": {
		name: "stream_scan",
		// A round is one scan on one connection and pushesPerScan
		// pushes on the other, so the request mix is fixed.
		kinds:       []string{"scan", "push"},
		serveConfig: batchedConfig,
	},
}

// inputs are the generated traffic: the test fold of the quick-scale
// corpus in a seeded order, with the nominal detector's offline
// verdicts as the accuracy reference.
type inputs struct {
	progs []dataset.TracedProgram
	order []int // program index of the j-th request
	// nominalOK[p] holds whether the nominal detector (hmd.DetectProgram
	// at nominal voltage) labels program p correctly: index 0 from its
	// whole trace, index w+1 from the detection period ending at window
	// w of the stream replay, the program's first pushWindows windows
	// repeated, which is the span a stride-1 stream scores there.
	nominalOK [][]bool
	period    int
	ids       []string // request ID of each program
}

func newInputs(env *experiments.Env, seed uint64) (*inputs, error) {
	in := &inputs{progs: env.Test(), period: env.Base.Config().Period}
	for _, tp := range in.progs {
		if len(tp.Windows) < max(pushWindows, in.period) {
			return nil, fmt.Errorf("program %s has %d windows, need %d", tp.Program.Name, len(tp.Windows), max(pushWindows, in.period))
		}
	}
	r := rand.New(rand.NewSource(int64(seed)))
	for c := 0; c < 4; c++ {
		in.order = append(in.order, r.Perm(len(in.progs))...)
	}
	in.nominalOK = make([][]bool, len(in.progs))
	for p, tp := range in.progs {
		in.ids = append(in.ids, "p"+strconv.Itoa(p))
		ok := make([]bool, pushWindows+1)
		ok[0] = env.Base.DetectProgram(tp.Windows).Malware == tp.IsMalware()
		for w := 0; w < pushWindows; w++ {
			span := make([]trace.WindowCounts, in.period)
			for i := range span {
				span[i] = tp.Windows[((w-in.period+1+i)%pushWindows+pushWindows)%pushWindows]
			}
			ok[w+1] = env.Base.DetectProgram(span).Malware == tp.IsMalware()
		}
		in.nominalOK[p] = ok
	}
	return in, nil
}

// result is the part of one served verdict the checks read, common to
// both transports.
type result struct {
	id                   string
	malware, unprotected bool
	attempts, windows    int
}

// checkDetect verifies a DETECT reply against the programs sent: one
// result per program, echoed IDs, the right window counts. It tallies
// accuracy against the ground truth and the nominal detector.
func checkDetect(t *tally, in *inputs, sent []int, n int, res func(i int) result) error {
	if n != len(sent) {
		return fmt.Errorf("reply has %d results for %d programs", n, len(sent))
	}
	for i, p := range sent {
		r := res(i)
		if r.id != in.ids[p] {
			return fmt.Errorf("result %d id %q, sent %q", i, r.id, in.ids[p])
		}
		if r.windows != len(in.progs[p].Windows) {
			return fmt.Errorf("result %q scored %d windows, sent %d", r.id, r.windows, len(in.progs[p].Windows))
		}
		tallyVerdict(t, &t.program, r, in.progs[p].IsMalware(), in.nominalOK[p][0])
	}
	return nil
}

func tallyVerdict(t *tally, q *quality, r result, truth, nominalOK bool) {
	q.verdicts.Add(1)
	if r.malware == truth {
		q.correct.Add(1)
	}
	if nominalOK {
		q.nominal.Add(1)
	}
	if r.unprotected {
		t.unprotected.Add(1)
	}
	t.attempts.Add(int64(r.attempts))
}

func wireResult(v wire.VerdictResult) result {
	return result{id: v.ID, malware: v.Malware, unprotected: v.Unprotected, attempts: int(v.Attempts), windows: int(v.Windows)}
}

// loader is a workload bound to a running stack: the request
// operations plus the request shape the traced run replays.
type loader struct {
	wl    *workload
	in    *inputs
	tally tally
	open  opFunc   // open loop: the request sent at each due time
	lanes [][]step // closed loop: one lane per connection pair
	// direct is json_routed's request sent straight to backend 0,
	// bypassing the router (traced runs time the hop with it).
	direct opFunc
	shape  shape
}

// shape is one request of the workload, as the traced run replays it
// through each module's public functions.
type shape struct {
	detect  *wire.DetectRequest
	stream  *wire.StreamRequest
	json    []byte
	tenants []string // tenant of each request, in order
}

// first sends one request through the workload's path and checks it;
// the stack's set-up ends at this first verified verdict.
func (wl *workload) first(st *stack) error {
	in := &inputs{progs: st.env.Test()[:1], nominalOK: [][]bool{{true}}, ids: []string{"p0"}}
	var t tally
	if wl.routed {
		body, err := jsonBody(in.ids[0], in.progs[0].Windows)
		if err != nil {
			return err
		}
		_, failed, err := jsonOp(st.http, st.routerURL, in, [][]byte{body}, []int{0}, &t)(context.Background(), 0, nil)
		if err == nil && failed {
			err = errors.New("request failed")
		}
		return err
	}
	req := wire.DetectRequest{Programs: []wire.DetectProgram{{ID: in.ids[0], Windows: in.progs[0].Windows}}}
	if wl.serveConfig(0, 0).Tenancy != nil {
		req.Tenant = tenants[0].ID
	}
	v, err := st.clients[0].Detect(context.Background(), req)
	if err != nil {
		return err
	}
	return checkDetect(&t, in, []int{0}, len(v.Results), func(i int) result { return wireResult(v.Results[i]) })
}

// jsonBody is a /v1/detect body carrying one program.
func jsonBody(id string, windows []trace.WindowCounts) ([]byte, error) {
	return json.Marshal(serve.DetectRequest{Programs: []serve.ProgramJSON{{ID: id, Windows: serve.EncodeWindows(windows)}}})
}

// newLoader generates the workload's inputs from seed and binds its
// operations to st. conns is the number of client connections.
func (wl *workload) newLoader(st *stack, seed uint64, conns int) (*loader, error) {
	in, err := newInputs(st.env, seed)
	if err != nil {
		return nil, err
	}
	d := &loader{wl: wl, in: in}
	r := rand.New(rand.NewSource(int64(seed) ^ 0x7e4a47))
	switch wl.name {
	case "wire_detect":
		reqs := make([]wire.DetectRequest, len(in.order))
		sent := make([][]int, len(in.order))
		for j, p := range in.order {
			ten := tenants[r.Intn(len(tenants))].ID
			reqs[j] = wire.DetectRequest{Programs: []wire.DetectProgram{{ID: in.ids[p], Windows: in.progs[p].Windows}}, Tenant: ten}
			sent[j] = in.order[j : j+1]
			d.shape.tenants = append(d.shape.tenants, ten)
		}
		d.open = detectOp(0, "request.detect", st.clients, reqs, sent, in, &d.tally, func(k int) int { return k })
		d.shape.detect = &reqs[0]
	case "json_routed":
		bodies := make([][]byte, len(in.order))
		for j, p := range in.order {
			b, err := jsonBody(in.ids[p], in.progs[p].Windows)
			if err != nil {
				return nil, err
			}
			bodies[j] = b
		}
		d.open = jsonOp(st.http, st.routerURL, in, bodies, in.order, &d.tally)
		d.direct = jsonOp(st.http, "http://"+st.httpAddrs[0], in, bodies, in.order, &d.tally)
		d.shape.json = bodies[0]
	case "stream_scan":
		// Scan s carries programs order[64s .. 64s+63] (cyclic); the
		// pattern repeats after lcm(len(order), 64) programs.
		nscan := len(in.order) / gcd(len(in.order), scanPrograms)
		scans := make([]wire.DetectRequest, nscan)
		sent := make([][]int, nscan)
		for s := range scans {
			for j := 0; j < scanPrograms; j++ {
				p := in.order[(s*scanPrograms+j)%len(in.order)]
				scans[s].Programs = append(scans[s].Programs, wire.DetectProgram{ID: in.ids[p], Windows: in.progs[p].Windows})
				sent[s] = append(sent[s], p)
			}
		}
		// Connections pair up: one sends a scan while the other pushes
		// pushesPerScan STREAM frames; a single connection does both in
		// turn.
		var nscans atomic.Int64
		next := func(int) int { return int(nscans.Add(1) - 1) }
		for c := 0; c < max(1, conns/2); c++ {
			sc, pc := st.clients[2*c%conns], st.clients[(2*c+1)%conns]
			scanStep := step{n: 1, op: detectOp(0, "request.scan", []*sdk.Client{sc}, scans, sent, in, &d.tally, next)}
			pushStep := step{n: pushesPerScan, op: pushOp(pc, c, c*streamsPerConn, in, &d.tally)}
			if conns == 1 {
				d.lanes = append(d.lanes, []step{scanStep, pushStep})
			} else {
				d.lanes = append(d.lanes, []step{scanStep}, []step{pushStep})
			}
		}
		p := in.order[0]
		d.shape.detect = &scans[0]
		d.shape.stream = &wire.StreamRequest{StreamID: 1, Stride: 1, ID: "s0", Windows: in.progs[p].Windows[:pushWindows]}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl.name)
	}
	return d, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// detectOp sends request next(k) of reqs (cyclic) as one SHMDWIRE
// DETECT through pkg/sdk, on clients[next(k)] (cyclic), and checks the
// reply against the programs sent[next(k)]. Its requests are of the
// given kind, and span is the name of their root span.
func detectOp(kind int, span string, clients []*sdk.Client, reqs []wire.DetectRequest, sent [][]int, in *inputs, t *tally, next func(k int) int) opFunc {
	return func(ctx context.Context, k int, tr *tracer) (int, bool, error) {
		j := next(k)
		root := tr.begin(span, int64(k), -1)
		defer tr.end(root)
		h := tr.begin("sdk.Client.Detect", int64(k), root)
		v, err := clients[j%len(clients)].Detect(ctx, reqs[j%len(reqs)])
		tr.end(h)
		if err != nil {
			var rl *sdk.ErrRateLimited
			if errors.As(err, &rl) {
				t.shed.Add(1)
			}
			return kind, true, nil
		}
		h = tr.begin("check", int64(k), root)
		defer tr.end(h)
		return kind, false, checkDetect(t, in, sent[j%len(sent)], len(v.Results), func(i int) result { return wireResult(v.Results[i]) })
	}
}

// jsonOp posts bodies[k] (cyclic) to base's /v1/detect.
func jsonOp(client *http.Client, base string, in *inputs, bodies [][]byte, order []int, t *tally) opFunc {
	url := base + "/v1/detect"
	return func(ctx context.Context, k int, tr *tracer) (int, bool, error) {
		j := k % len(bodies)
		root := tr.begin("request.detect", int64(k), -1)
		defer tr.end(root)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(bodies[j]))
		if err != nil {
			return 0, false, err
		}
		req.Header.Set("Content-Type", "application/json")
		h := tr.begin("http.Client.Do", int64(k), root)
		resp, err := client.Do(req)
		tr.end(h)
		if err != nil {
			return 0, true, nil
		}
		h = tr.begin("json.Decoder.Decode", int64(k), root)
		var out serve.DetectResponse
		decErr := json.NewDecoder(resp.Body).Decode(&out)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		tr.end(h)
		if resp.StatusCode != http.StatusOK {
			return 0, true, nil
		}
		if decErr != nil {
			return 0, false, fmt.Errorf("decoding reply: %w", decErr)
		}
		h = tr.begin("check", int64(k), root)
		defer tr.end(h)
		return 0, false, checkDetect(t, in, order[j:j+1], len(out.Results), func(i int) result {
			r := out.Results[i]
			return result{id: r.ID, malware: r.Malware, unprotected: r.Unprotected, attempts: r.Attempts, windows: r.Windows}
		})
	}
}

// windowStream is one stride-1 stream replaying its program's windows
// forever, with the window count the server has buffered so far.
type windowStream struct {
	ws     *sdk.WindowStream
	prefix string // "<label>#"
	prog   int
	total  int
	broken bool // a push failed: server-side state unknown, labels unchecked
}

// pushOp holds streamsPerConn window streams on cl and, per request,
// pushes pushWindows windows to the next stream, round robin. Each
// verdict must carry "<label>#N" with N the stream's window index, so
// labels increase by one per window within a stream.
func pushOp(cl *sdk.Client, conn, first int, in *inputs, t *tally) opFunc {
	streams := make([]*windowStream, streamsPerConn)
	for s := range streams {
		label := fmt.Sprintf("s%d-%d", conn, s)
		streams[s] = &windowStream{
			ws:     cl.OpenWindowStream(label, 1),
			prefix: label + "#",
			prog:   in.order[(first+s)%len(in.order)],
		}
	}
	var n int
	return func(ctx context.Context, k int, tr *tracer) (int, bool, error) {
		st := streams[n%len(streams)]
		n++
		windows := in.progs[st.prog].Windows[:pushWindows]
		root := tr.begin("request.push", int64(k), -1)
		defer tr.end(root)
		h := tr.begin("sdk.WindowStream.Push", int64(k), root)
		res, err := st.ws.Push(ctx, windows)
		tr.end(h)
		if err != nil {
			st.broken = true
			return 1, true, nil
		}
		h = tr.begin("check", int64(k), root)
		defer tr.end(h)
		from := max(st.total+1, in.period)
		st.total += len(windows)
		if st.broken {
			return 1, false, nil
		}
		if want := st.total - from + 1; len(res) != want {
			return 1, false, fmt.Errorf("stream %s: %d verdicts for %d windows, want %d", st.prefix, len(res), len(windows), want)
		}
		for i, v := range res {
			num, ok := strings.CutPrefix(v.ID, st.prefix)
			idx, err := strconv.Atoi(num)
			if !ok || err != nil || idx != from+i {
				return 1, false, fmt.Errorf("stream verdict %q out of order: want %s%d", v.ID, st.prefix, from+i)
			}
			if int(v.Windows) != in.period {
				return 1, false, fmt.Errorf("stream verdict %q scored %d windows, period is %d", v.ID, v.Windows, in.period)
			}
			w := (idx - 1) % pushWindows
			tallyVerdict(t, &t.window, wireResult(v), in.progs[st.prog].IsMalware(), in.nominalOK[st.prog][w+1])
		}
		return 1, false, nil
	}
}
