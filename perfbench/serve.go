package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"llva/internal/llee"
	"llva/internal/serve"
	"llva/internal/target"
)

// Serve-side settings shared by serve-hot and serve-cold: two workers
// and two client connections on a two-CPU host, vx86 sessions with a
// 4 MiB address space, and a per-run gas budget far above any op's need.
const (
	serveWorkers = 2
	serveClients = 2
	serveMemSize = 1 << 22
	serveGas     = 1 << 40
	reqIDHeader  = "X-Request-Id"
)

// rig is one in-process llva-serve: a System, a Server and an HTTP
// server on a loopback listener, plus a client of at most two
// connections. A traced rig stamps every request with an ID on the
// client side and records a handler span under the same ID.
type rig struct {
	sys    *llee.System
	srv    *serve.Server
	hs     *http.Server
	client *serve.Client
	served chan error
	spans  *spanLog // nil: untraced

	setupLoad call // the /load of the set-up module
}

// newRig starts a server; spans, when non-nil, turns on request tracing.
func newRig(spans *spanLog) (*rig, error) {
	sys := llee.NewSystem()
	srv, err := serve.New(serve.Config{
		System:  sys,
		Target:  target.VX86,
		Workers: serveWorkers,
		MemSize: serveMemSize,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drainServer(srv)
		return nil, err
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	var h http.Handler = mux
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	if spans != nil {
		h = spans.handler(mux)
		rt = stampTransport{rt}
	}
	r := &rig{
		sys:    sys,
		srv:    srv,
		hs:     &http.Server{Handler: h},
		client: &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: rt}},
		served: make(chan error, 1),
		spans:  spans,
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// close stops the HTTP server, drains the worker pool and closes the
// System, waiting for every goroutine the rig started.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.client.HTTP.CloseIdleConnections()
	if derr := r.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := r.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

func drainServer(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Drain(ctx) // the server never admitted a request
}

// reqIDKey carries a request ID from a client span to stampTransport.
type reqIDKey struct{}

// stampTransport copies the context's request ID into a header, so the
// server-side handler span of a request carries the client span's ID.
type stampTransport struct{ next http.RoundTripper }

func (t stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(reqIDKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	return t.next.RoundTrip(req)
}

// call is one client request's outcome.
type call struct {
	id      uint64 // request ID (traced rigs only)
	client  time.Duration
	resp    serve.RunResponse
	refused bool // shed, rate limited, gas budget or draining
}

// run sends one /run request; on a traced rig it records the client span.
func (r *rig) run(ctx context.Context, lane int, req serve.RunRequest) (call, error) {
	return r.do(ctx, lane, "serve.Client.Run", func(ctx context.Context, c *call) (err error) {
		c.resp, err = r.client.Run(ctx, req)
		return err
	})
}

// load sends one /load request; on a traced rig it records the client span.
func (r *rig) load(ctx context.Context, lane int, req serve.LoadRequest) (call, error) {
	return r.do(ctx, lane, "serve.Client.Load", func(ctx context.Context, _ *call) error {
		_, err := r.client.Load(ctx, req)
		return err
	})
}

func (r *rig) do(ctx context.Context, lane int, name string, fn func(context.Context, *call) error) (call, error) {
	var c call
	var end func()
	if r.spans != nil {
		c.id = r.spans.nextID(lane)
		ctx = context.WithValue(ctx, reqIDKey{}, c.id)
		end = r.spans.t.Begin(pidClient, lane, "serve", name, map[string]any{"req": c.id})
	}
	t0 := time.Now()
	err := fn(ctx, &c)
	c.client = time.Since(t0)
	if end != nil {
		end()
	}
	if errors.Is(err, serve.ErrShed) || errors.Is(err, serve.ErrRateLimited) ||
		errors.Is(err, serve.ErrGasBudget) || errors.Is(err, serve.ErrDraining) {
		c.refused = true
	}
	return c, err
}

// serveLoad is what distinguishes the serve workloads; set-up is the
// same for both (startHot).
type serveLoad struct {
	// phase drives the timed traffic for d on a set-up server.
	phase func(r *rig, cycles []uint64, d time.Duration) phaseResult
	// statics measures compile_ms, translate_ms and native_code_bytes
	// on the workload's modules, after the timed phase.
	statics func(into map[string]float64) error
	// finish adds sim_cycles from the timed phase.
	finish func(ph *phaseResult, cycles []uint64, into map[string]float64)
	// layers lists the modules the traced run drives through the layers
	// directly; it is called after the traced phase.
	layers func() []layerProg
}

// runServe measures a serve workload. Untraced, it sets the server up
// setupReps times (setup_s is the median) and times the last one.
func runServe(cfg config, in *hotInputs, load serveLoad) (*report, error) {
	rep := newReport()
	if cfg.trace {
		return rep, traceServe(cfg, in, load, rep)
	}
	var r *rig
	var cycles []uint64
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		// Each set-up and the timed phase start from a collected heap,
		// so the garbage of the one before does not land on them.
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, cycles, err = startHot(in, nil, &rep.setup); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	debug.FreeOSMemory()
	ph := load.phase(r, cycles, cfg.seconds)
	if err := r.close(); err != nil {
		return nil, err
	}
	rep.timed = ph.t
	rep.samples = ph.samples()
	ph.serveE2E(rep.e2e)
	rep.e2e["setup_s"] = median(setups).Seconds()
	rep.e2e["rss_peak_mb"] = ph.rssMB
	load.finish(&ph, cycles, rep.e2e)
	// Compiling retains memory, so the toolchain is measured last, out
	// of the way of the server's heap and peak RSS.
	runtime.GC()
	return rep, load.statics(rep.e2e)
}

// traceServe is the traced run of a serve workload. An untraced phase
// of half the run gives the reference CPU per op and the Go runtime's
// numbers; a traced phase on a fresh traced server gives the serve.*
// spans; driving the same modules through the layers directly gives
// the llee, toolchain and machine-load numbers.
func traceServe(cfg config, in *hotInputs, load serveLoad, rep *report) error {
	half := cfg.seconds / 2
	r, cycles, err := startHot(in, nil, &rep.setup)
	if err != nil {
		return err
	}
	ref := load.phase(r, cycles, half)
	if err := r.close(); err != nil {
		return err
	}
	rep.timed = ref.t
	ref.use.goMetrics(ref.succeeded(), rep.layers)

	spans := newSpanLog()
	if r, cycles, err = startHot(in, spans, &rep.setup); err != nil {
		return err
	}
	reg := r.sys.Telemetry()
	counter := func(name string) float64 { return float64(reg.CounterValue(name)) }
	reuse0, cold0 := counter(serve.MetricSessionReuse), counter(serve.MetricSessionCold)
	builds0, chains0 := counter("machine.block_builds"), counter("machine.block_chains")
	tr := load.phase(r, cycles, half)
	reuse, cold := counter(serve.MetricSessionReuse)-reuse0, counter(serve.MetricSessionCold)-cold0
	runs := float64(max(len(tr.runs), 1))
	rep.layers["serve.reuse_ratio"] = reuse / max(reuse+cold, 1)
	rep.layers["machine.block_builds"] = (counter("machine.block_builds") - builds0) / runs
	rep.layers["machine.block_chains"] = (counter("machine.block_chains") - chains0) / runs
	if err := r.close(); err != nil {
		return err
	}
	rep.traced = tr.t
	tr.loads = append(tr.loads, r.setupLoad)
	tr.serveLayers(spans, rep.layers)
	rep.layers["trace.overhead_pct"] = 100 * (tr.use.cpuMSPerOp(tr.succeeded())/ref.use.cpuMSPerOp(ref.succeeded()) - 1)

	lt, err := driveLayers(load.layers(), spans.t, rep.layers)
	rep.traced.merge(lt)
	if err != nil {
		return err
	}
	return spans.write(cfg.traceOut)
}
