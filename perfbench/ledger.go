package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mpipredict/internal/cluster"
	"mpipredict/internal/core"
	"mpipredict/internal/evalx"
	"mpipredict/internal/serve"
	"mpipredict/internal/simnet"
	"mpipredict/internal/strategy"
	"mpipredict/internal/tracecache"
	"mpipredict/internal/tracestore"
	"mpipredict/internal/wire"
	"mpipredict/internal/workloads"
)

// The layer ledger: the traced run. It replays the seed's inputs through
// each layer's public entry point, one rung per layer, each rung adding
// one layer above the rung below:
//
//	ingest:      strategy -> registry (ObserveBlockSeq) -> wire (Client -> WireServer)
//	interactive: strategy -> registry (ObserveBlockSeq + ForecastInto) -> HTTP (Server.ServeHTTP)
//	             -> gateway (Gateway.ServeHTTP -> backend over loopback)
//	reproduce:   simulation (tracecache/workloads/simmpi) -> evaluation (evalx.Runner)
//	store:       tracestore write -> scans
//
// Spans are recorded around every call the benchmark makes, and inside
// the serving stack by a strategy wrapper registered as "dpd-traced",
// which nests the model's spans under whichever request caused them. A
// layer's self time is its span's duration minus what its children cover;
// where the benchmark cannot see inside a layer (the registry inside the
// HTTP server), the rung below supplies that layer's self time.

const (
	tracedStrategy = "dpd-traced"
	// ledgerCap bounds each stream's events in the ingest rungs, which
	// bounds the spans kept in memory.
	ledgerCap = 2048
	// ledgerSteps is the number of interactive steps per rung.
	ledgerSteps = 600
	// mixRepeats is how many query mixes each store comparison runs.
	mixRepeats = 5
)

// ledgerTracer is the tracer the registered strategy wrapper records to.
var ledgerTracer = newTracer()

func init() {
	strategy.Register(tracedStrategy, func(cfg core.Config) strategy.Strategy {
		inner, err := strategy.New(strategy.Default, cfg)
		if err != nil {
			panic(err) // the default strategy is always registered
		}
		return &tracedStrat{Strategy: inner, t: ledgerTracer}
	})
}

// tracedStrat records a span around every Observe and Predict.
type tracedStrat struct {
	strategy.Strategy
	t *tracer
}

func (s *tracedStrat) Observe(x int64) {
	if !s.t.on.Load() {
		s.Strategy.Observe(x)
		return
	}
	start := s.t.now()
	s.Strategy.Observe(x)
	s.t.leaf("strategy.observe", start)
}

func (s *tracedStrat) Predict(k int) (int64, bool) {
	if !s.t.on.Load() {
		return s.Strategy.Predict(k)
	}
	start := s.t.now()
	v, ok := s.Strategy.Predict(k)
	s.t.leaf("strategy.predict", start)
	return v, ok
}

// ledger accumulates the per-layer metrics of one traced run.
type ledger struct {
	t     *tracer
	rep   *report
	marks map[string][2]int // span index range of each rung
	self  []int64
	spans []span
}

// mark runs fn with tracing on and remembers the span range it produced.
func (l *ledger) mark(rung string, fn func() error) error {
	lo := l.t.count()
	l.t.on.Store(true)
	err := fn()
	l.t.on.Store(false)
	l.marks[rung] = [2]int{lo, l.t.count()}
	return err
}

// totals aggregates the spans of one rung by name.
func (l *ledger) totals(rung string) map[string]spanTotal {
	r := l.marks[rung]
	out := make(map[string]spanTotal)
	for i := r[0]; i < r[1]; i++ {
		s := l.spans[i]
		t := out[s.Name]
		t.N++
		t.Dur += s.End - s.Start
		t.Self += l.self[i]
		out[s.Name] = t
	}
	return out
}

// untraced runs fn with tracing off and returns its wall time and bytes
// allocated.
func untraced(fn func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc, err
}

func runLedger(ctx context.Context, cfg config, w io.Writer) (*report, error) {
	in, err := generateInputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	l := &ledger{t: ledgerTracer, rep: &report{}, marks: make(map[string][2]int)}
	overhead := map[string]*[2]time.Duration{} // traced, untraced wall of the workload's path
	capped := capStreams(in, ledgerCap)

	ingest, err := ledgerIngest(ctx, l, capped)
	if err != nil {
		return nil, fmt.Errorf("ingest rungs: %w", err)
	}
	overhead["ingest-wire"] = &ingest
	steps := schedule(ledgerSteps, len(in.Streams), interactiveRate)
	step, err := ledgerInteractive(ctx, l, in, steps)
	if err != nil {
		return nil, fmt.Errorf("interactive rungs: %w", err)
	}
	overhead["interactive-gateway"] = &step
	repro, err := ledgerReproduce(l, cfg, cfg.Workload == "reproduce-paper")
	if err != nil {
		return nil, fmt.Errorf("reproduce rungs: %w", err)
	}
	overhead["reproduce-paper"] = &repro
	store, err := ledgerStore(ctx, l, cfg, in)
	if err != nil {
		return nil, fmt.Errorf("store rungs: %w", err)
	}
	overhead["store-analytics"] = &store

	l.spans = l.t.snapshot()
	l.self = selfTimes(l.spans)
	l.report(in, capped, len(steps))
	o := overhead[cfg.Workload]
	l.rep.add("tracing_overhead_pct", pct(float64(o[0]-o[1]), float64(o[1])), "%",
		fmt.Sprintf("%s path traced %.1f ms vs untraced %.1f ms", cfg.Workload, float64(o[0])/1e6, float64(o[1])/1e6))
	if cfg.Workload == "reproduce-paper" {
		checkParallelIdentity(ctx, cfg, l.rep)
	}
	path := filepath.Join(cfg.Work, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.Workload, cfg.Seed))
	if err := writeTSV(path, l.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%d spans written to %s\n", len(l.spans), path)
	for _, line := range unmeasured {
		l.rep.note("not measured: %s", line)
	}
	return l.rep, nil
}

// unmeasured lists the named metrics this ledger cannot measure from
// outside the program, with the reason.
var unmeasured = []string{
	"per-stage self time inside mpipredictd/mpigateway processes (decode, dedup, encode): spans exist only in the benchmark's process; the in-process rungs stand in for them",
	"registry self time inside Server.ServeHTTP and WireServer: the registry is called inside those layers, so its self time comes from the registry rung, not from a nested span",
	"evalx per-spec time at -parallel > 1: the worker pool is internal; pool efficiency uses serial per-spec spans against the parallel wall time",
}

// capStreams returns the inputs with every stream cut to at most n events.
func capStreams(in *inputs, n int) *inputs {
	out := &inputs{Seed: in.Seed}
	for _, s := range in.Streams {
		if len(s.Senders) > n {
			s.Senders, s.Sizes = s.Senders[:n], s.Sizes[:n]
		}
		out.Streams = append(out.Streams, s)
		out.Events += len(s.Senders)
	}
	return out
}

// countingListener counts the bytes the server reads from its clients.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (c *countingListener) Accept() (net.Conn, error) {
	conn, err := c.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, n: &c.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// ledgerIngest runs the three ingest rungs over the capped inputs and
// returns the traced and untraced wall time of the wire rung.
func ledgerIngest(ctx context.Context, l *ledger, in *inputs) ([2]time.Duration, error) {
	frames := ingestPlan(in, 1)[0]
	l.rep.Attempted += int64(3 * len(frames))
	t := l.t
	final := make(map[string][][]serve.Forecast)

	// Rung 1: the strategies alone.
	models := make([][2]strategy.Strategy, len(in.Streams))
	for i := range models {
		for k := range models[i] {
			models[i][k], _ = strategy.New(tracedStrategy, core.Config{})
		}
	}
	l.mark("ingest.strategy", func() error {
		for bi, f := range frames {
			id := t.begin("rung.strategy", int64(bi))
			s := &in.Streams[f.stream]
			m := models[f.stream]
			for i := f.from; i < f.to; i++ {
				m[0].Observe(s.Senders[i])
				m[1].Observe(s.Sizes[i])
			}
			t.end(id)
		}
		return nil
	})
	for i := range models {
		final["strategy"] = append(final["strategy"], modelForecasts(models[i][0], models[i][1], horizon))
	}

	// Rung 2: the registry's block ingest.
	feed := func(reg *serve.Registry, tenant string, span string) error {
		for bi, f := range frames {
			s := &in.Streams[f.stream]
			id := t.begin(span, int64(bi))
			_, _, err := reg.ObserveBlockSeq(tenant, s.Key, "", f.seq, s.Senders[f.from:f.to], s.Sizes[f.from:f.to])
			t.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	}
	reg := serve.NewRegistry(serve.Config{Strategy: tracedStrategy})
	if err := l.mark("ingest.registry", func() error { return feed(reg, "ledger", "registry.observe_block") }); err != nil {
		return [2]time.Duration{}, err
	}
	final["registry"] = registryForecasts(reg, "ledger", in)
	_, alloc, err := untraced(func() error { return feed(serve.NewRegistry(serve.Config{Strategy: tracedStrategy}), "ledger", "") })
	if err != nil {
		return [2]time.Duration{}, err
	}
	l.rep.add("registry.alloc_bytes_per_event", float64(alloc)/float64(in.Events), "B", "ObserveBlockSeq, untraced")

	// Rung 3: the wire client and server over loopback.
	wreg := serve.NewRegistry(serve.Config{Strategy: tracedStrategy})
	ws := serve.NewWireServer(serve.NewServer(wreg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return [2]time.Duration{}, err
	}
	cl := &countingListener{Listener: ln}
	served := make(chan error, 1)
	go func() { served <- ws.Serve(cl) }()
	defer func() {
		ws.Close()
		<-served
	}()
	client, err := wire.Dial(ctx, ln.Addr().String(), wire.ClientOptions{})
	if err != nil {
		return [2]time.Duration{}, err
	}
	defer client.Close()
	pass := func(tenant string) (time.Duration, error) {
		start := time.Now()
		for _, f := range frames {
			s := &in.Streams[f.stream]
			if err := client.ObserveBlock(ctx, tenant, s.Key, "", f.seq, s.Senders[f.from:f.to], s.Sizes[f.from:f.to]); err != nil {
				return 0, err
			}
		}
		err := client.Flush(ctx)
		return time.Since(start), err
	}
	var traced time.Duration
	if err := l.mark("ingest.wire", func() error {
		id := t.begin("wire.pass", 0)
		var err error
		traced, err = pass("ledger")
		t.end(id)
		return err
	}); err != nil {
		return [2]time.Duration{}, err
	}
	l.rep.add("wire.bytes_per_event", float64(cl.n.Load())/float64(in.Events), "B", "client to server, framing included")
	final["wire"] = registryForecasts(wreg, "ledger", in)
	plain, _, err := untraced(func() error { _, err := pass("ledger-untraced"); return err })
	if err != nil {
		return [2]time.Duration{}, err
	}
	agree := true
	for _, rung := range []string{"registry", "wire"} {
		for i := range final["strategy"] {
			if !sameForecasts(final[rung][i], final["strategy"][i]) {
				agree = false
			}
		}
	}
	l.rep.check("ingest rungs agree", agree, "final forecasts of %d streams equal at the strategy, registry and wire rungs", len(in.Streams))
	return [2]time.Duration{traced, plain}, nil
}

// modelForecasts is what a session holding these two strategies forecasts.
func modelForecasts(sender, size strategy.Strategy, k int) []serve.Forecast {
	var out []serve.Forecast
	for ahead := 1; ahead <= k; ahead++ {
		sv, sok := sender.Predict(ahead)
		zv, zok := size.Predict(ahead)
		out = append(out, serve.Forecast{Ahead: ahead, Sender: sv, SenderOK: sok, Size: zv, SizeOK: zok, OK: sok && zok})
	}
	return out
}

func registryForecasts(reg *serve.Registry, tenant string, in *inputs) [][]serve.Forecast {
	var out [][]serve.Forecast
	for _, s := range in.Streams {
		f, _, _ := reg.ForecastInto(nil, tenant, s.Key, horizon)
		out = append(out, f)
	}
	return out
}

// respRecorder is a reusable in-memory http.ResponseWriter.
type respRecorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *respRecorder) Header() http.Header { return r.h }
func (r *respRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *respRecorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}
func (r *respRecorder) reset() {
	r.code = 0
	r.body.Reset()
	clear(r.h)
}

// stepRequests builds a step's observe and predict requests.
func stepRequests(ctx context.Context, in *inputs, tenant string, st step) (*http.Request, *http.Request) {
	s := &in.Streams[st.Stream]
	snd, sz := s.at(st.J)
	body := fmt.Sprintf(`{"tenant":%q,"stream":%q,"seq":%d,"senders":[%d],"sizes":[%d]}`, tenant, s.Key, st.J-warmPrefix+2, snd, sz)
	obs, _ := http.NewRequestWithContext(ctx, http.MethodPost, "http://ledger/v1/observe", bytes.NewReader([]byte(body)))
	obs.Header.Set("Content-Type", "application/json")
	q := url.Values{"tenant": {tenant}, "stream": {s.Key}, "k": {fmt.Sprint(horizon)}}
	pred, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://ledger/v1/predict?"+q.Encode(), nil)
	return obs, pred
}

// warmRegistry observes every stream's warm prefix under tenant.
func warmRegistry(reg *serve.Registry, in *inputs, tenant string) error {
	for i := range in.Streams {
		s := &in.Streams[i]
		senders, sizes := make([]int64, warmPrefix), make([]int64, warmPrefix)
		for j := range senders {
			senders[j], sizes[j] = s.at(j)
		}
		if _, _, err := reg.ObserveBlockSeq(tenant, s.Key, "", 1, senders, sizes); err != nil {
			return err
		}
	}
	return nil
}

// decodeFirst decodes a predict body's first forecast.
func decodeFirst(rec *respRecorder) (serve.Forecast, error) {
	if rec.code != http.StatusOK {
		return serve.Forecast{}, fmt.Errorf("status %d: %s", rec.code, rec.body.String())
	}
	var r predictReply
	if err := json.Unmarshal(rec.body.Bytes(), &r); err != nil {
		return serve.Forecast{}, err
	}
	if len(r.Forecasts) == 0 {
		return serve.Forecast{}, fmt.Errorf("no forecasts")
	}
	return r.Forecasts[0], nil
}

// ledgerInteractive runs the four interactive rungs and returns the
// traced and untraced service time of the gateway rung.
func ledgerInteractive(ctx context.Context, l *ledger, in *inputs, steps []step) ([2]time.Duration, error) {
	t := l.t
	l.rep.Attempted += int64(5 * len(steps))
	first := make(map[string][]serve.Forecast)

	// Rung 1: strategies.
	type pair [2]strategy.Strategy
	models := make([]pair, len(in.Streams))
	for i := range models {
		for k := range models[i] {
			models[i][k], _ = strategy.New(tracedStrategy, core.Config{})
		}
		for j := 0; j < warmPrefix; j++ {
			a, b := in.Streams[i].at(j)
			models[i][0].Observe(a)
			models[i][1].Observe(b)
		}
	}
	l.mark("step.strategy", func() error {
		for _, st := range steps {
			id := t.begin("rung.step", int64(st.N))
			m := models[st.Stream]
			a, b := in.Streams[st.Stream].at(st.J)
			m[0].Observe(a)
			m[1].Observe(b)
			f := modelForecasts(m[0], m[1], horizon)
			t.end(id)
			first["strategy"] = append(first["strategy"], f[0])
		}
		return nil
	})

	// Rung 2: registry.
	reg := serve.NewRegistry(serve.Config{Strategy: tracedStrategy})
	if err := warmRegistry(reg, in, "ledger"); err != nil {
		return [2]time.Duration{}, err
	}
	buf := make([]serve.Forecast, 0, horizon)
	if err := l.mark("step.registry", func() error {
		for _, st := range steps {
			s := &in.Streams[st.Stream]
			a, b := s.at(st.J)
			id := t.begin("registry.observe", int64(st.N))
			_, _, err := reg.ObserveBlockSeq("ledger", s.Key, "", int64(st.J-warmPrefix)+2, []int64{a}, []int64{b})
			t.end(id)
			if err != nil {
				return err
			}
			id = t.begin("registry.forecast", int64(st.N))
			buf, _, _ = reg.ForecastInto(buf[:0], "ledger", s.Key, horizon)
			t.end(id)
			first["registry"] = append(first["registry"], buf[0])
		}
		return nil
	}); err != nil {
		return [2]time.Duration{}, err
	}

	// Rung 3: the HTTP/JSON server, in process.
	httpRung := func(tenant string, record bool) error {
		hreg := serve.NewRegistry(serve.Config{Strategy: tracedStrategy})
		if err := warmRegistry(hreg, in, tenant); err != nil {
			return err
		}
		srv := serve.NewServer(hreg)
		reqs := make([][2]*http.Request, len(steps))
		for i, st := range steps {
			reqs[i][0], reqs[i][1] = stepRequests(ctx, in, tenant, st)
		}
		rec := &respRecorder{h: make(http.Header)}
		run := func() error {
			for i, st := range steps {
				rec.reset()
				id := t.begin("http.observe", int64(st.N))
				srv.ServeHTTP(rec, reqs[i][0])
				t.end(id)
				if rec.code != http.StatusOK {
					return fmt.Errorf("observe status %d: %s", rec.code, rec.body.String())
				}
				rec.reset()
				id = t.begin("http.predict", int64(st.N))
				srv.ServeHTTP(rec, reqs[i][1])
				t.end(id)
				if record {
					f, err := decodeFirst(rec)
					if err != nil {
						return err
					}
					first["http"] = append(first["http"], f)
				}
			}
			return nil
		}
		if record {
			return l.mark("step.http", run)
		}
		_, alloc, err := untraced(run)
		l.rep.add("http.alloc_bytes_per_req", float64(alloc)/float64(2*len(steps)), "B", "observe and predict, untraced")
		return err
	}
	if err := httpRung("ledger", true); err != nil {
		return [2]time.Duration{}, err
	}
	if err := httpRung("ledger-alloc", false); err != nil {
		return [2]time.Duration{}, err
	}

	// Rung 4: the gateway in process, forwarding to one backend server
	// over loopback HTTP, driven as an open loop at interactiveRate.
	greg := serve.NewRegistry(serve.Config{Strategy: tracedStrategy})
	backend := serve.NewServer(greg)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin("http.backend", -1)
		backend.ServeHTTP(w, r)
		t.end(id)
	}))
	defer hs.Close()
	sm, err := cluster.NewShardMap([]string{hs.URL})
	if err != nil {
		return [2]time.Duration{}, err
	}
	gw := cluster.NewGateway(sm, cluster.Options{})
	gatewayRung := func(tenant string, record bool) (time.Duration, error) {
		if err := warmRegistry(greg, in, tenant); err != nil {
			return 0, err
		}
		reqs := make([][2]*http.Request, len(steps))
		for i, st := range steps {
			reqs[i][0], reqs[i][1] = stepRequests(ctx, in, tenant, st)
		}
		rec := &respRecorder{h: make(http.Header)}
		var busy, free time.Duration
		var late []float64
		t0 := time.Now()
		for i, st := range steps {
			if wait := st.Due - time.Since(t0); wait > 0 {
				time.Sleep(wait)
			}
			start := time.Since(t0)
			rec.reset()
			id := t.begin("gateway.observe", int64(st.N))
			gw.ServeHTTP(rec, reqs[i][0])
			t.end(id)
			if rec.code != http.StatusOK {
				return 0, fmt.Errorf("gateway observe status %d: %s", rec.code, rec.body.String())
			}
			rec.reset()
			id = t.begin("gateway.predict", int64(st.N))
			gw.ServeHTTP(rec, reqs[i][1])
			t.end(id)
			f, err := decodeFirst(rec)
			if err != nil {
				return 0, err
			}
			done := time.Since(t0)
			_, lateMs := timing(st.Due, free, start, done)
			late = append(late, lateMs)
			busy += done - start
			free = done
			if record {
				first["gateway"] = append(first["gateway"], f)
			}
		}
		if record {
			d := summarize(late)
			l.rep.add("loadgen.late_tail_ms", d.Tail, "ms", fmt.Sprintf("p%g of %d open-loop steps at %.0f steps/s", d.TailP, d.N, interactiveRate))
		}
		return busy, nil
	}
	var traced time.Duration
	if err := l.mark("step.gateway", func() error {
		var err error
		traced, err = gatewayRung("ledger", true)
		return err
	}); err != nil {
		return [2]time.Duration{}, err
	}
	plain, err := gatewayRung("ledger-untraced", false)
	if err != nil {
		return [2]time.Duration{}, err
	}
	rec := &respRecorder{h: make(http.Header)}
	vreq, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://ledger/debug/vars", nil)
	gw.ServeHTTP(rec, vreq)
	var vars struct {
		BackendStats map[string]struct {
			Errors  int64 `json:"errors"`
			Retries int64 `json:"retries"`
		} `json:"backend_stats"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &vars); err != nil {
		return [2]time.Duration{}, fmt.Errorf("gateway vars: %w", err)
	}
	var retries, errs int64
	for _, b := range vars.BackendStats {
		retries += b.Retries
		errs += b.Errors
	}
	// Both are 0 on a healthy run, so they are printed, not result metrics.
	l.rep.note("gateway.retries %d count, gateway.backend_errors %d count", retries, errs)

	agree := true
	for _, rung := range []string{"registry", "http", "gateway"} {
		if len(first[rung]) != len(first["strategy"]) {
			agree = false
			continue
		}
		for i := range first[rung] {
			if first[rung][i] != first["strategy"][i] {
				agree = false
			}
		}
	}
	l.rep.check("interactive rungs agree", agree, "next-message forecasts of %d steps equal at the strategy, registry, HTTP and gateway rungs", len(steps))
	return [2]time.Duration{traced, plain}, nil
}

// ledgerReproduce measures simulation and evaluation of the paper grid in
// process: serial simulation into a fresh trace cache, the parallel
// Table 1 + Figures 3/4 evaluation on the warm cache, and each spec's
// serial evaluation for the pool's efficiency. With withOverhead it also
// times the serial evaluation untraced.
func ledgerReproduce(l *ledger, cfg config, withOverhead bool) ([2]time.Duration, error) {
	t := l.t
	cache := tracecache.New()
	opts := evalx.Options{Net: simnet.DefaultConfig(), Seed: cfg.Seed, Cache: cache}
	specs := workloads.PaperSpecs()
	l.rep.Attempted += int64(3 * len(specs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var events int
	var simS, evalS time.Duration
	var fig34 time.Duration
	err := l.mark("reproduce", func() error {
		for i, spec := range specs {
			recv, err := workloads.TypicalReceiver(spec.Name, spec.Procs)
			if err != nil {
				return err
			}
			id := t.begin("simmpi.simulate", int64(i))
			start := time.Now()
			tr, err := cache.Get(workloads.RunConfig{Spec: spec, Net: opts.Net, Seed: opts.Seed, TraceReceivers: []int{recv}})
			simS += time.Since(start)
			t.end(id)
			if err != nil {
				return err
			}
			events += tr.Len()
		}
		runner := &evalx.Runner{Parallelism: cfg.Procs, Cache: cache}
		id := t.begin("evalx.table1", 0)
		start := time.Now()
		_, err := runner.Table1(opts)
		evalS += time.Since(start)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("evalx.figures34", 0)
		start = time.Now()
		_, _, err = runner.Figures34(opts)
		fig34 = time.Since(start)
		evalS += fig34
		t.end(id)
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return [2]time.Duration{}, err
	}
	st := cache.Stats()
	l.rep.add("simmpi.simulate_s", simS.Seconds(), "s", fmt.Sprintf("paper grid, %d specs, serial", len(specs)))
	l.rep.add("simmpi.events_per_s", float64(events)/simS.Seconds(), "events/s", fmt.Sprintf("%d events, both levels", events))
	l.rep.add("evalx.evaluate_s", evalS.Seconds(), "s", fmt.Sprintf("Table 1 + Figures 3/4 on a warm cache at %d workers", cfg.Procs))
	l.rep.add("evalx.events_per_s", float64(events)/fig34.Seconds(), "events/s", "Figures 3/4 sweep")
	l.rep.add("tracecache.hit_pct", pct(float64(st.Hits+st.Coalesced), float64(st.Hits+st.Coalesced+st.Misses)), "%", "")
	l.rep.add("tracecache.simulations", float64(st.Misses), "count", "")
	l.rep.add("reproduce.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, "MB", "simulation + Table 1 + Figures 3/4, in process")

	serial := &evalx.Runner{Parallelism: 1, Cache: cache}
	var serialSum time.Duration
	err = l.mark("reproduce.serial", func() error {
		for i, spec := range specs {
			id := t.begin("evalx.spec", int64(i))
			start := time.Now()
			_, err := serial.Evaluate([]workloads.Spec{spec}, opts)
			serialSum += time.Since(start)
			t.end(id)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return [2]time.Duration{}, err
	}
	l.rep.add("evalx.pool_efficiency", serialSum.Seconds()/(fig34.Seconds()*float64(cfg.Procs)), "ratio", "serial per-spec sum / (parallel wall x workers)")
	if !withOverhead {
		return [2]time.Duration{}, nil
	}
	plain, _, err := untraced(func() error { _, err := serial.Evaluate(specs, opts); return err })
	return [2]time.Duration{serialSum, plain}, err
}

// ledgerStore writes the store and runs the query mix traced, then
// compares 1 and cfg.Procs workers and traced and untraced mixes.
func ledgerStore(ctx context.Context, l *ledger, cfg config, in *inputs) ([2]time.Duration, error) {
	path := filepath.Join(cfg.Work, fmt.Sprintf("ledger-store-%d.mpts", cfg.Seed))
	var rd storeRound
	err := l.mark("store", func() error {
		var err error
		rd, err = runStoreRound(ctx, path, in, cfg.Procs, l.t)
		return err
	})
	if err != nil {
		return [2]time.Duration{}, err
	}
	l.rep.Attempted += int64(1 + 7*(1+3*mixRepeats)) // the write, then 7 queries per mix
	l.rep.add("tracestore.write_ns_per_event", rd.WriteS*1e9/float64(rd.Events), "ns", fmt.Sprintf("%d events", rd.Events))
	l.rep.add("tracestore.bytes_per_event", float64(rd.Bytes)/float64(rd.Events), "B", "")
	for _, k := range queryNames {
		per := rd.Mix.Ms[k] / 2
		if k == "pruned" {
			per = rd.Mix.Ms[k]
		}
		l.rep.add("tracestore.scan_"+k+"_ms", per, "ms", "per query")
	}
	l.rep.add("tracestore.blocks_read", float64(rd.Mix.Scan.BlocksRead), "count", "one query mix")
	l.rep.add("tracestore.bytes_read", float64(rd.Mix.Scan.BytesRead), "B", "one query mix")
	l.rep.add("tracestore.partitions_pruned", float64(rd.Mix.Scan.Pruned), "count", "one query mix")

	r, err := tracestore.Open(path)
	if err != nil {
		return [2]time.Duration{}, err
	}
	defer r.Close()
	mixes := func(workers int, tr *tracer) (time.Duration, error) {
		var d []float64
		for i := 0; i < mixRepeats; i++ {
			start := time.Now()
			if _, _, err := queryMix(ctx, r, workers, tr); err != nil {
				return 0, err
			}
			d = append(d, float64(time.Since(start)))
		}
		return time.Duration(median(d)), nil
	}
	one, err := mixes(1, newTracer())
	if err != nil {
		return [2]time.Duration{}, err
	}
	many, err := mixes(cfg.Procs, newTracer())
	if err != nil {
		return [2]time.Duration{}, err
	}
	l.rep.add("tracestore.parallel_speedup", float64(one)/float64(many), "ratio", fmt.Sprintf("query mix at 1 vs %d workers", cfg.Procs))
	var traced time.Duration
	err = l.mark("store.overhead", func() error {
		var err error
		traced, err = mixes(cfg.Procs, l.t)
		return err
	})
	return [2]time.Duration{traced, many}, err
}

// report derives the per-layer metrics and self-time shares from spans.
func (l *ledger) report(in, capped *inputs, steps int) {
	E := float64(capped.Events)
	M := float64(steps)
	ns := func(t spanTotal, per float64) float64 { return float64(t.Dur) / per }

	rs := l.totals("ingest.strategy")
	rr := l.totals("ingest.registry")
	rw := l.totals("ingest.wire")
	l.rep.add("strategy.observe_ns", ns(rs["strategy.observe"], float64(rs["strategy.observe"].N)), "ns", "per call")
	l.rep.add("strategy.locked_pct", lockedShare(in.Streams), "%", "sender observes after which the DPD is locked, full inputs")
	l.rep.add("periodic_events_pct", in.periodicShare(), "%", "bt/cg/lu share of input events")
	l.rep.add("registry.observe_block_ns_per_event", ns(rr["registry.observe_block"], E), "ns", "ObserveBlockSeq")
	l.rep.add("wire.observe_block_ns_per_event", ns(rw["wire.pass"], E), "ns", "client to WireServer, acknowledged")

	is := l.totals("step.strategy")
	ir := l.totals("step.registry")
	ih := l.totals("step.http")
	ig := l.totals("step.gateway")
	l.rep.add("strategy.predict_ns", ns(is["strategy.predict"], float64(is["strategy.predict"].N)), "ns", "per Predict call; a k=5 forecast makes 10")
	l.rep.add("registry.observe_ns", ns(ir["registry.observe"], M), "ns", "one-event ObserveBlockSeq")
	l.rep.add("registry.forecast_ns", ns(ir["registry.forecast"], M), "ns", "ForecastInto, k=5")
	l.rep.add("http.observe_ns", ns(ih["http.observe"], M), "ns", "Server.ServeHTTP")
	l.rep.add("http.predict_ns", ns(ih["http.predict"], M), "ns", "Server.ServeHTTP, k=5")
	l.rep.add("gateway.observe_ns", ns(ig["gateway.observe"], M), "ns", "Gateway.ServeHTTP to one backend")
	l.rep.add("gateway.predict_ns", ns(ig["gateway.predict"], M), "ns", "Gateway.ServeHTTP to one backend")

	// One ingest-wire event: model, registry, and wire (codec, transport
	// and server loop), from the wire rung with the registry's self time
	// taken from the registry rung.
	total := float64(rw["wire.pass"].Dur) / E
	strat := float64(rw["strategy.observe"].Dur) / E
	regSelf := float64(rr["registry.observe_block"].Self) / E
	wireSelf := float64(rw["wire.pass"].Self)/E - regSelf
	l.shares("ingest", total, []string{"strategy", "registry", "wire"}, []float64{strat, regSelf, wireSelf})

	// One interactive step through the gateway rung.
	total = float64(ig["gateway.observe"].Dur+ig["gateway.predict"].Dur) / M
	strat = float64(ig["strategy.observe"].Dur+ig["strategy.predict"].Dur) / M
	regSelf = float64(ir["registry.observe"].Self+ir["registry.forecast"].Self) / M
	httpSelf := float64(ig["http.backend"].Self)/M - regSelf
	gwSelf := float64(ig["gateway.observe"].Self+ig["gateway.predict"].Self) / M
	l.shares("step", total, []string{"strategy", "registry", "http", "gateway"}, []float64{strat, regSelf, httpSelf, gwSelf})
}

// shares reports each layer's self time as a share of the whole path and
// names the largest.
func (l *ledger) shares(path string, total float64, layers []string, self []float64) {
	largest := 0
	for i, name := range layers {
		l.rep.add(fmt.Sprintf("share.%s.%s_pct", path, name), pct(self[i], total), "%", fmt.Sprintf("%.0f ns of %.0f ns", self[i], total))
		if self[i] > self[largest] {
			largest = i
		}
	}
	l.rep.note("largest self-time layer of one %s: %s (%.1f%%)", map[string]string{"ingest": "ingest-wire event", "step": "interactive-gateway step"}[path], layers[largest], pct(self[largest], total))
}

// checkParallelIdentity runs the reproduction at -parallel 1 and at
// cfg.Procs and requires byte-identical reports.
func checkParallelIdentity(ctx context.Context, cfg config, rep *report) {
	rep.Attempted += 2
	one, _, _, err1 := runProc(ctx, cfg.Bin, "mpipredict", reproduceArgs(cfg, 1)...)
	many, _, _, err2 := runProc(ctx, cfg.Bin, "mpipredict", reproduceArgs(cfg, cfg.Procs)...)
	if err1 != nil || err2 != nil {
		rep.Failed += 2
	}
	rep.check("-parallel 1 identical", err1 == nil && err2 == nil && bytes.Equal(one, many), "-parallel 1 vs -parallel %d reports (errors %v, %v)", cfg.Procs, err1, err2)
	if err1 == nil {
		checkReproduction(rep, cfg, one, seed1Headline)
	}
}
