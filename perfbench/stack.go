package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"shmd/internal/dataset"
	"shmd/internal/experiments"
	"shmd/internal/route"
	"shmd/internal/serve"
	"shmd/pkg/sdk"
)

// corpusSeed fixes the quick-scale corpus and the trained baseline, so
// every workload seed serves the same detector and accuracy stays
// comparable across runs; the workload seed orders the traffic and
// seeds the pool's fault streams.
const corpusSeed = 1

// setupStages are the set-up costs of one stack, in seconds: the wall
// time of each stage and of the whole set-up, and the process CPU time
// the whole set-up used.
type setupStages struct {
	generate, train, serveNew, routeReady, total float64
	cpu                                          float64
}

// stack is the serving system under test, started in-process: serve
// backends on both listeners, an optional router in front, and the
// load generator's clients.
type stack struct {
	env       *experiments.Env
	backends  []*serve.Server
	httpAddrs []string
	wireAddrs []string
	router    *route.Router
	routerURL string
	clients   []*sdk.Client
	http      *http.Client
	stages    setupStages

	stops []func() error // run in order by close
}

// newStack generates the corpus, trains the baseline, starts the
// backends (and the router when the workload is routed), dials
// conns client connections, and returns once the workload's first
// request has produced a verified verdict.
func newStack(wl *workload, seed uint64, conns int) (*stack, error) {
	st := &stack{}
	cpu0 := processCPU()
	t0 := time.Now()
	scale := experiments.Quick(corpusSeed)
	data, err := dataset.Generate(scale.Dataset)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	t1 := time.Now()
	if st.env, err = experiments.NewEnvFromData(scale, 0, data); err != nil {
		return nil, err
	}
	t2 := time.Now()
	st.stages.generate = t1.Sub(t0).Seconds()
	st.stages.train = t2.Sub(t1).Seconds()

	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	nb := 1
	if wl.routed {
		nb = 2
	}
	for b := 0; b < nb; b++ {
		if err := st.startBackend(wl.serveConfig(seed, b)); err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	st.stages.serveNew = t3.Sub(t2).Seconds()

	if wl.routed {
		if err := st.startRouter(seed); err != nil {
			return nil, err
		}
		st.stages.routeReady = time.Since(t3).Seconds()
	}
	if !wl.routed {
		for i := 0; i < conns; i++ {
			cl, err := sdk.Dial(st.wireAddrs[0], sdk.Options{JitterSeed: int64(seed) + int64(i) + 1})
			if err != nil {
				return nil, fmt.Errorf("sdk dial: %w", err)
			}
			st.clients = append(st.clients, cl)
		}
	} else {
		tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
		st.http = &http.Client{Transport: tr, Timeout: 30 * time.Second}
		st.stops = append([]func() error{func() error { tr.CloseIdleConnections(); return nil }}, st.stops...)
	}
	if err := wl.first(st); err != nil {
		return nil, fmt.Errorf("first verdict: %w", err)
	}
	st.stages.total = time.Since(t0).Seconds()
	st.stages.cpu = (processCPU() - cpu0).Seconds()
	ok = true
	return st, nil
}

// startBackend builds one serve.Server and serves it on an HTTP and a
// SHMDWIRE listener.
func (st *stack) startBackend(cfg serve.Config) error {
	srv, err := serve.New(st.env.Base, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		srv.Close()
		return err
	}
	st.backends = append(st.backends, srv)
	st.httpAddrs = append(st.httpAddrs, ln.Addr().String())
	st.wireAddrs = append(st.wireAddrs, wln.Addr().String())
	// The wire listener drains before the HTTP shutdown closes the pool.
	st.stops = append(st.stops, serveUntil(func(ctx context.Context) error { return srv.ServeWire(ctx, wln) }))
	st.stops = append(st.stops, serveUntil(func(ctx context.Context) error { return srv.Serve(ctx, ln) }))
	return nil
}

// startRouter fronts every backend with a route.Router and waits until
// its probe puts all of them in rotation.
func (st *stack) startRouter(seed uint64) error {
	urls := make([]string, len(st.httpAddrs))
	for i, a := range st.httpAddrs {
		urls[i] = "http://" + a
	}
	// No lame-duck delay on shutdown: nothing probes this router.
	rt, err := route.New(route.Config{Backends: urls, JitterSeed: int64(seed), DrainDelay: -1})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.router = rt
	st.routerURL = "http://" + ln.Addr().String()
	// The router stops before the backends it relays to.
	st.stops = append([]func() error{serveUntil(func(ctx context.Context) error { return rt.Serve(ctx, ln) })}, st.stops...)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if up := rt.ProbeOnce(ctx); up != len(urls) {
		return fmt.Errorf("router: %d of %d backends ready", up, len(urls))
	}
	return nil
}

// serveUntil runs serve in a goroutine and returns the function that
// cancels it and waits for it to return.
func serveUntil(serve func(ctx context.Context) error) func() error {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx) }()
	return func() error {
		cancel()
		return <-done
	}
}

// close stops clients, router and backends, in that order, and waits
// for every serving goroutine to return.
func (st *stack) close() error {
	var errs []error
	for _, cl := range st.clients {
		cl.Close()
	}
	for _, stop := range st.stops {
		if err := stop(); err != nil {
			errs = append(errs, err)
		}
	}
	st.clients, st.stops = nil, nil
	return errors.Join(errs...)
}
