package mpipredict

import (
	"context"
	"net"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFacadePredictors(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	for i := 0; i < 60; i++ {
		p.Observe(int64(i % 3))
	}
	if v, ok := p.Predict(1); !ok || v != 0 {
		t.Errorf("facade predictor Predict(1)=%d,%v want 0,true", v, ok)
	}
	names := Strategies()
	if len(names) < 3 {
		t.Errorf("expected the DPD and baseline strategies, got %v", names)
	}
	for _, n := range names {
		s, err := NewStrategy(n, DefaultPredictorConfig())
		if err != nil {
			t.Fatalf("NewStrategy(%q): %v", n, err)
		}
		if s.Desc().Name != n {
			t.Errorf("NewStrategy(%q) describes itself as %q", n, s.Desc().Name)
		}
	}
	if _, err := NewStrategy("bogus", DefaultPredictorConfig()); err == nil {
		t.Error("unknown strategy should fail")
	}
	mp := NewMessagePredictor(DefaultPredictorConfig())
	for i := 0; i < 100; i++ {
		mp.Observe(1+i%2, int64(100*(1+i%2)))
	}
	fc := mp.Forecast(2)
	if !fc[0].OK || !fc[1].OK {
		t.Errorf("message forecast should be available: %+v", fc)
	}
}

func TestFacadeWorkloadsAndEvaluation(t *testing.T) {
	if len(Workloads()) != 5 {
		t.Fatalf("expected 5 workloads, got %d", len(Workloads()))
	}
	if len(PaperWorkloads()) != 19 {
		t.Fatalf("expected the 19 paper configurations, got %d", len(PaperWorkloads()))
	}
	recv, err := TypicalReceiver("bt", 9)
	if err != nil || recv != 3 {
		t.Errorf("TypicalReceiver(bt,9)=%d,%v want 3 (the paper traces process 3)", recv, err)
	}

	spec := WorkloadSpec{Name: "bt", Procs: 4, Iterations: 15}
	tr, err := RunWorkload(spec, DefaultNetworkConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("workload trace is empty")
	}
	res, err := EvaluateTrace(tr, 3, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy(SenderStream, Logical, 1) < 0.7 {
		t.Errorf("logical accuracy too low: %.3f", res.Accuracy(SenderStream, Logical, 1))
	}

	res2, err := Evaluate(spec, EvalOptions{Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res2.App != "bt" || res2.Procs != 4 {
		t.Errorf("metadata wrong: %+v", res2)
	}
}

func TestFacadeRunProgramAndTraceIO(t *testing.T) {
	cfg := RuntimeConfig{App: "facade", Procs: 2, Net: NoiselessNetworkConfig()}
	tr, err := RunProgram(cfg, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, 128)
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tr.Len() {
		t.Errorf("round-trip changed record count: %d vs %d", loaded.Len(), tr.Len())
	}

	// The columnar store round-trips through the facade too: save as
	// .mpts, scan it through the store reader, load it via the generic
	// LoadTrace sniffing point.
	storePath := filepath.Join(t.TempDir(), "trace.mpts")
	if err := SaveTraceStore(storePath, tr); err != nil {
		t.Fatal(err)
	}
	r, err := OpenTraceStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Events() != int64(tr.Len()) {
		t.Errorf("store indexes %d events, trace holds %d", r.Events(), tr.Len())
	}
	fromStore, err := LoadTrace(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if fromStore.Len() != tr.Len() {
		t.Errorf("store round-trip changed record count: %d vs %d", fromStore.Len(), tr.Len())
	}
}

func TestFacadeScalabilityReplay(t *testing.T) {
	tr, err := RunWorkload(WorkloadSpec{Name: "bt", Procs: 4, Iterations: 25}, DefaultNetworkConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	recv, _ := TypicalReceiver("bt", 4)
	buf, err := ReplayBuffers(tr, recv, BufferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Messages == 0 {
		t.Error("buffer replay processed no messages")
	}
	cred, err := ReplayCredits(tr, recv, 0, CreditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cred.Messages != buf.Messages {
		t.Error("credit replay should process the same messages")
	}
	prot, err := ReplayProtocol(tr, recv, ProtocolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prot.BaselineLatencyUS <= 0 {
		t.Error("protocol replay should accumulate latency")
	}
	if StaticBufferMemory(10000, 16*1024) != int64(9999)*16*1024 {
		t.Error("StaticBufferMemory wrong")
	}
}

func TestFacadeFigure1SmallRun(t *testing.T) {
	fig, err := Figure1(EvalOptions{Net: NoiselessNetworkConfig(), Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	if fig.SenderPeriod != 18 || fig.SizePeriod != 18 {
		t.Errorf("Figure 1 periods=%d/%d want 18/18", fig.SenderPeriod, fig.SizePeriod)
	}
}

func TestFacadeServing(t *testing.T) {
	reg := NewServeRegistry(ServeConfig{})
	for i := 0; i < 3000; i++ {
		v := int64(i % 4)
		if _, _, err := reg.ObserveBlockSeq("tenant", "stream", "", 0, []int64{v}, []int64{10 * v}); err != nil {
			t.Fatal(err)
		}
	}
	fc, observed, ok := reg.ForecastInto(nil, "tenant", "stream", 3)
	if !ok || observed != 3000 || len(fc) != 3 {
		t.Fatalf("forecast = (%d forecasts, observed %d, ok %v)", len(fc), observed, ok)
	}
	if !fc[0].OK {
		t.Error("warmed session should forecast")
	}
	if NewServeServer(reg).Registry() != reg {
		t.Error("server does not front the registry it was built with")
	}

	path := filepath.Join(t.TempDir(), "state.mps")
	if err := SaveSessionSnapshots(path, reg.SnapshotSessions()); err != nil {
		t.Fatal(err)
	}
	sessions, err := LoadSessionSnapshots(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("loaded %d sessions, want 1", len(sessions))
	}
	sp, err := RestoreStrategy(sessions[0].Strategy, sessions[0].Sender)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Desc().Name != "dpd" {
		t.Fatalf("default session strategy is %q, want dpd", sp.Desc().Name)
	}
	want, _, _ := reg.ForecastInto(nil, "tenant", "stream", 1)
	if v, ok := sp.Predict(1); !ok || v != want[0].Sender {
		t.Fatalf("restored predictor predicts (%d, %v), registry says %d", v, ok, want[0].Sender)
	}
}

// TestFacadeWire walks the binary-transport exports end to end: a wire
// listener over a served registry, a pipelined client observing and
// predicting, and the load generator reporting its throughput.
func TestFacadeWire(t *testing.T) {
	reg := NewServeRegistry(ServeConfig{})
	srv := NewServeServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(srv)
	go ws.Serve(ln)
	defer ws.Close()

	ctx := context.Background()
	c, err := DialWire(ctx, ln.Addr().String(), WireClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	senders, sizes := make([]int64, 64), make([]int64, 64)
	for seq := int64(1); seq <= 50; seq++ {
		for i := range senders {
			p := (int(seq-1)*len(senders) + i) % 4
			senders[i], sizes[i] = int64(p), int64(10*p)
		}
		if err := c.ObserveBlock(ctx, "tenant", "stream", "", seq, senders, sizes); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Predict(ctx, "tenant", "stream", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Observed != 50*64 || len(resp.Forecasts) != 3 {
		t.Fatalf("wire predict = found %v, observed %d, %d forecasts", resp.Found, resp.Observed, len(resp.Forecasts))
	}

	// The load generator needs the HTTP surface to probe for the wire
	// advert; pin the wire transport and point it at the listener.
	hts := httptest.NewServer(srv)
	defer hts.Close()
	srv.SetWireAddr(ln.Addr().String())
	stats, err := RunLoadGen(ctx, hts.URL, LoadGenOptions{Events: 2048, Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 2048 || stats.Transport != "wire" || stats.EventsPerSec() <= 0 {
		t.Fatalf("loadgen stats = %+v, want 2048 wire-delivered events", stats)
	}
}

// TestFacadeStrategyComparison drives the strategy comparison and its
// report through the facade.
func TestFacadeStrategyComparison(t *testing.T) {
	cmp, err := CompareStrategies([]string{"dpd", "lastvalue"},
		[]WorkloadSpec{{Name: "bt", Procs: 4}}, EvalOptions{Seed: 1, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 1 || cmp.Rows[0].Logical["dpd"] <= cmp.Rows[0].Logical["lastvalue"] {
		t.Fatalf("comparison rows = %+v, want dpd ahead of lastvalue on bt.4", cmp.Rows)
	}
	out := FormatStrategyComparison(cmp)
	for _, want := range []string{"dpd", "lastvalue", "bt"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted comparison lacks %q:\n%s", want, out)
		}
	}
}

// TestFacadeTraceCacheAndRunner covers the cached and all-receivers
// simulation entry points and the parallel runner: a cached trace is
// served from the shared cache on the second call, and the runner's
// results equal the one-shot Evaluate.
func TestFacadeTraceCacheAndRunner(t *testing.T) {
	ClearTraceCache()
	spec := WorkloadSpec{Name: "cg", Procs: 4, Iterations: 3}
	first, err := RunWorkloadCached(spec, DefaultNetworkConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	before := TraceCacheStats()
	again, err := RunWorkloadCached(spec, DefaultNetworkConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if again != first || TraceCacheStats().Hits != before.Hits+1 {
		t.Errorf("second cached run was not a cache hit (stats %+v -> %+v)", before, TraceCacheStats())
	}
	all, err := RunWorkloadAllReceivers(spec, DefaultNetworkConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(all.Receivers()); got != spec.Procs {
		t.Errorf("all-receivers trace records %d receivers, want %d", got, spec.Procs)
	}

	opts := EvalOptions{Seed: 1, Iterations: 3}
	viaRunner, err := NewEvalRunner(2).Evaluate([]WorkloadSpec{spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Evaluate(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRunner) != 1 || !reflect.DeepEqual(viaRunner[0], direct) {
		t.Error("runner result differs from Evaluate")
	}
}

// TestFacadeStreamingEvaluation pins the block-source entry points
// against the in-memory evaluation: a streamed file, an in-memory trace
// source, a no-op perturbation and a one-source merge all score exactly
// like EvaluateTrace.
func TestFacadeStreamingEvaluation(t *testing.T) {
	path := corpusPath("bt.4.mpt")
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	recv, _ := TypicalReceiver("bt", 4)
	opts := EvalOptions{}
	want, err := EvaluateTrace(tr, recv, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]EventSourceOpener{
		"file":    func() (EventSource, error) { return OpenTraceSource(path) },
		"memory":  func() (EventSource, error) { return TraceSource(tr), nil },
		"perturb": func() (EventSource, error) { return PerturbSource(TraceSource(tr), PerturbConfig{Seed: 1}), nil },
		"merge":   func() (EventSource, error) { return MergeSources(TraceSource(tr)), nil },
	} {
		got, err := EvaluateSource(open, recv, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s source scores differently from EvaluateTrace", name)
		}
	}
	if src, err := OpenTraceSource(filepath.Join(t.TempDir(), "missing.mpt")); err == nil || src != nil {
		t.Errorf("missing file: got (%v, %v), want an untyped nil source and an error", src, err)
	}
}

// TestFacadePaperTables runs Table 1, Figure 2 and Figures 3/4 on
// shrunken workloads through the facade.
func TestFacadePaperTables(t *testing.T) {
	opts := EvalOptions{Seed: 1, Iterations: 2}
	rows, err := Table1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperWorkloads()) {
		t.Errorf("Table 1 has %d rows, want one per paper workload (%d)", len(rows), len(PaperWorkloads()))
	}
	fig2, err := Figure2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig2.Logical) == 0 || len(fig2.Logical) != len(fig2.Physical) {
		t.Errorf("Figure 2 streams: %d logical, %d physical", len(fig2.Logical), len(fig2.Physical))
	}
	logical, physical, err := Figures34(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(logical.Cells) == 0 || len(physical.Cells) != len(logical.Cells) || logical.Level != Logical || physical.Level != Physical {
		t.Errorf("Figures 3/4: %d %v cells, %d %v cells", len(logical.Cells), logical.Level, len(physical.Cells), physical.Level)
	}
}

// TestFacadeRestorePredictor round-trips a trained DPD through its
// snapshot.
func TestFacadeRestorePredictor(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	for i := 0; i < 200; i++ {
		p.Observe(int64(i % 5))
	}
	restored, err := RestorePredictor(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		wv, wok := p.Predict(k)
		if gv, gok := restored.Predict(k); gv != wv || gok != wok {
			t.Errorf("+%d: restored (%d, %v), original (%d, %v)", k, gv, gok, wv, wok)
		}
	}
	if _, err := RestorePredictor(PredictorSnapshot{}); err == nil {
		t.Error("zero snapshot restored")
	}
}

// TestFacadeClusterReplay replays a corpus trace through a two-backend
// gateway and through a single daemon: the backends' merged sessions
// equal the single node's, and partitioning the single node's snapshot
// by the shard map and merging it back is the identity.
func TestFacadeClusterReplay(t *testing.T) {
	tr, err := LoadTrace(corpusPath("bt.4.mpt"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	single := NewServeRegistry(ServeConfig{})
	singleSrv := httptest.NewServer(NewServeServer(single))
	defer singleSrv.Close()
	if _, err := ReplayTrace(ctx, singleSrv.URL, tr, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}

	var regs []*ServeRegistry
	var urls []string
	for i := 0; i < 2; i++ {
		reg := NewServeRegistry(ServeConfig{})
		srv := httptest.NewServer(NewServeServer(reg))
		defer srv.Close()
		regs, urls = append(regs, reg), append(urls, srv.URL)
	}
	shards, err := NewShardMap(urls)
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(NewClusterGateway(shards, ClusterOptions{}))
	defer gw.Close()
	if _, err := ReplayTrace(ctx, gw.URL, tr, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}

	want := single.SnapshotSessions()
	if got := MergeSessionSnapshots(regs[0].SnapshotSessions(), regs[1].SnapshotSessions()); !reflect.DeepEqual(got, want) {
		t.Error("sessions replayed through the gateway differ from the single-node replay")
	}
	parts := PartitionSessionSnapshot(want, shards)
	var all [][]SessionSnapshot
	for _, part := range parts {
		all = append(all, part)
	}
	if got := MergeSessionSnapshots(all...); !reflect.DeepEqual(got, want) {
		t.Error("partition then merge is not the identity")
	}
}
