package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"mpipredict/internal/core"
	"mpipredict/internal/serve"
	"mpipredict/internal/strategy"
)

// The interactive-gateway workload: an open loop at a fixed rate through
// mpigateway to two mpipredictd backends over HTTP/JSON. Each step is one
// MPI message of one stream: a single-event observe followed by a
// predict?k=5 for the same stream. Steps are due on a fixed schedule set
// by the application, not by the predictor, so a slow step delays the
// steps behind it and that delay counts in their latency.

const (
	// interactiveRate is the offered load in steps per second, well below
	// the saturation of a closed loop on a 2-vCPU host (650-1500 steps/s
	// with two connections, depending on the host's other load), so the
	// schedule, not the system, sets the pace.
	interactiveRate = 300.0
	// warmPrefix events of every stream are observed in one block during
	// set-up, so the timed steps meet trained predictors.
	warmPrefix = 256
	// stepTimeout bounds each HTTP request; a timeout fails the step.
	stepTimeout = 2 * time.Second
	// lateLimitMs is the generator's own lateness (time it started a step
	// after the step was due and its connection was free) above which the
	// run is invalid: the load generator, not the system, set the pace.
	lateLimitMs = 25.0
	horizon     = 5
)

// at returns event j of the stream repeated cyclically, so short streams
// (is, sweep3d) keep producing messages for the whole run.
func (s *inputStream) at(j int) (sender, size int64) {
	k := j % len(s.Senders)
	return s.Senders[k], s.Sizes[k]
}

// step is one scheduled message.
type step struct {
	N      int
	Stream int
	J      int // event index within the cyclic stream
	Due    time.Duration
}

// schedule lays out n steps at the given rate, round-robin over the
// streams; stream s's k-th step observes event warmPrefix+k.
func schedule(n, streams int, rate float64) []step {
	out := make([]step, n)
	for i := range out {
		out[i] = step{N: i, Stream: i % streams, J: warmPrefix + i/streams, Due: time.Duration(float64(i) / rate * float64(time.Second))}
	}
	return out
}

// stepResult is what one step produced.
type stepResult struct {
	OK        bool
	LatencyMs float64 // completion minus due time
	LateMs    float64 // start minus the later of due time and connection free
	ServiceMs float64 // completion minus start
	Timely    bool    // forecast back before the stream's next event was due
	Forecast  serve.Forecast
}

// timing derives a step's latency and generator lateness, both measured
// from the schedule: latency runs from the due time (not the send time)
// so a stall's wait on later steps counts; lateness is only the part of
// the delay the connection did not cause.
func timing(due, free, start, done time.Duration) (latencyMs, lateMs float64) {
	ready := due
	if free > ready {
		ready = free
	}
	late := start - ready
	if late < 0 {
		late = 0
	}
	return float64(done-due) / 1e6, float64(late) / 1e6
}

// stepClient issues a step's two requests over one keep-alive connection.
type stepClient struct {
	base   string
	tenant string
	http   *http.Client
}

func newStepClient(base, tenant string) *stepClient {
	return &stepClient{base: base, tenant: tenant, http: &http.Client{
		Timeout:   stepTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *stepClient) close() { c.http.CloseIdleConnections() }

// observe posts events as one sequenced columnar block.
func (c *stepClient) observe(ctx context.Context, key string, seq int64, senders, sizes []int64) error {
	body, err := json.Marshal(map[string]interface{}{"tenant": c.tenant, "stream": key, "seq": seq, "senders": senders, "sizes": sizes})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/observe", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("observe: %s: %s", resp.Status, strings.TrimSpace(string(reply)))
	}
	if bytes.Contains(reply, []byte(`"duplicate":true`)) {
		return fmt.Errorf("observe seq %d of %s acknowledged as a duplicate", seq, key)
	}
	return nil
}

// predict fetches the k=horizon forecast and returns its first message.
func (c *stepClient) predict(ctx context.Context, key string) (serve.Forecast, error) {
	q := url.Values{"tenant": {c.tenant}, "stream": {key}, "k": {fmt.Sprint(horizon)}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/predict?"+q.Encode(), nil)
	if err != nil {
		return serve.Forecast{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return serve.Forecast{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return serve.Forecast{}, fmt.Errorf("predict: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	var r predictReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return serve.Forecast{}, err
	}
	if len(r.Forecasts) != horizon {
		return serve.Forecast{}, fmt.Errorf("predict returned %d forecasts, want %d", len(r.Forecasts), horizon)
	}
	return r.Forecasts[0], nil
}

// doStep observes event J of the step's stream and fetches the forecast.
func (c *stepClient) doStep(ctx context.Context, in *inputs, st step) (serve.Forecast, error) {
	s := &in.Streams[st.Stream]
	snd, sz := s.at(st.J)
	if err := c.observe(ctx, s.Key, int64(st.J-warmPrefix)+2, []int64{snd}, []int64{sz}); err != nil {
		return serve.Forecast{}, err
	}
	return c.predict(ctx, s.Key)
}

// warm observes every stream's warmPrefix events as sequence number 1.
func (c *stepClient) warm(ctx context.Context, in *inputs) error {
	for i := range in.Streams {
		s := &in.Streams[i]
		senders, sizes := make([]int64, warmPrefix), make([]int64, warmPrefix)
		for j := range senders {
			senders[j], sizes[j] = s.at(j)
		}
		if err := c.observe(ctx, s.Key, 1, senders, sizes); err != nil {
			return err
		}
	}
	return nil
}

// openLoop runs the steps over conns connections (stream s belongs to
// connection s mod conns), each step starting at its due time or as soon
// as its connection is free.
func openLoop(ctx context.Context, in *inputs, clients []*stepClient, steps []step, doStep func(context.Context, *stepClient, step) (serve.Forecast, error)) ([]stepResult, time.Duration) {
	res := make([]stepResult, len(steps))
	streams := len(in.Streams)
	period := time.Duration(float64(streams) / interactiveRate * float64(time.Second))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var free time.Duration
			for i, st := range steps {
				if st.Stream%len(clients) != c {
					continue
				}
				if wait := st.Due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(t0)
				f, err := doStep(ctx, clients[c], st)
				done := time.Since(t0)
				r := stepResult{OK: err == nil, Forecast: f, ServiceMs: float64(done-start) / 1e6}
				r.LatencyMs, r.LateMs = timing(st.Due, free, start, done)
				r.Timely = r.OK && done < st.Due+period
				res[i] = r
				free = done
			}
		}(c)
	}
	wg.Wait()
	return res, time.Since(t0)
}

// hitCounts scores served forecasts against the stream's actual next
// message.
func hitCounts(in *inputs, steps []step, res []stepResult) (served, senderHits, sizeHits int) {
	for i, st := range steps {
		if !res[i].OK {
			continue
		}
		served++
		snd, sz := in.Streams[st.Stream].at(st.J + 1)
		f := res[i].Forecast
		if f.SenderOK && f.Sender == snd {
			senderHits++
		}
		if f.SizeOK && f.Size == sz {
			sizeHits++
		}
	}
	return served, senderHits, sizeHits
}

// offlineForecasts replays each stream's warm prefix and steps through
// fresh dpd strategies, exactly as a session would see them, and returns
// the next-message forecast after every step plus the share of steps
// after which the sender DPD was locked.
func offlineForecasts(in *inputs, steps []step) ([]serve.Forecast, float64) {
	type pair struct{ sender, size strategy.Strategy }
	models := make([]*pair, len(in.Streams))
	out := make([]serve.Forecast, len(steps))
	locked := 0
	for i, st := range steps {
		s := &in.Streams[st.Stream]
		m := models[st.Stream]
		if m == nil {
			snd, _ := strategy.New(strategy.Default, core.Config{})
			sz, _ := strategy.New(strategy.Default, core.Config{})
			m = &pair{snd, sz}
			models[st.Stream] = m
			for j := 0; j < warmPrefix; j++ {
				a, b := s.at(j)
				m.sender.Observe(a)
				m.size.Observe(b)
			}
		}
		a, b := s.at(st.J)
		m.sender.Observe(a)
		m.size.Observe(b)
		if m.sender.(strategy.StateReporter).PredictorState() == "locked" {
			locked++
		}
		sv, sok := m.sender.Predict(1)
		zv, zok := m.size.Predict(1)
		out[i] = serve.Forecast{Ahead: 1, Sender: sv, SenderOK: sok, Size: zv, SizeOK: zok, OK: sok && zok}
	}
	return out, pct(float64(locked), float64(len(steps)))
}

// interactiveSUT is one set-up of the interactive-gateway workload.
type interactiveSUT struct {
	in      *inputs
	procs   []*proc
	base    string
	clients []*stepClient
}

func (s *interactiveSUT) close() (float64, error) {
	for _, c := range s.clients {
		c.close()
	}
	return stopAll(s.procs)
}

// setupInteractive generates the inputs, starts two daemons and the
// gateway in front of them, and warms every stream's session.
func setupInteractive(ctx context.Context, cfg config) (*interactiveSUT, error) {
	in, err := generateInputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &interactiveSUT{in: in}
	var backends []string
	for i := 0; i < 2; i++ {
		d, err := startProc(ctx, cfg.Bin, "mpipredictd", []string{"-addr", "127.0.0.1:0"}, "listening on http://")
		if err != nil {
			s.close()
			return nil, err
		}
		s.procs = append(s.procs, d)
		backends = append(backends, "http://"+d.addrs["listening on http://"])
		if err := waitReady(ctx, backends[i]); err != nil {
			s.close()
			return nil, err
		}
	}
	gw, err := startProc(ctx, cfg.Bin, "mpigateway", []string{"-addr", "127.0.0.1:0", "-backends", strings.Join(backends, ",")}, "listening on http://")
	if err != nil {
		s.close()
		return nil, err
	}
	s.procs = append(s.procs, gw)
	s.base = "http://" + gw.addrs["listening on http://"]
	if err := waitReady(ctx, s.base); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < cfg.Procs; i++ {
		s.clients = append(s.clients, newStepClient(s.base, "bench"))
	}
	if err := s.clients[0].warm(ctx, in); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func runInteractive(ctx context.Context, cfg config, w io.Writer) (*report, error) {
	sut, setupS, err := setupRepeated(setupRuns, func() (*interactiveSUT, error) { return setupInteractive(ctx, cfg) },
		func(s *interactiveSUT) error { _, err := s.close(); return err })
	if err != nil {
		return nil, err
	}
	rep := &report{SetupS: setupS}
	in := sut.in
	steps := schedule(int(interactiveRate*cfg.Seconds), len(in.Streams), interactiveRate)
	res, wall := openLoop(ctx, in, sut.clients, steps, func(ctx context.Context, c *stepClient, st step) (serve.Forecast, error) {
		return c.doStep(ctx, in, st)
	})
	var late, service []float64
	timely := 0
	var firstErr error
	for i, r := range res {
		rep.Attempted++
		if !r.OK {
			rep.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("step %d failed", steps[i].N)
			}
		}
		if r.Timely {
			timely++
		}
		lat := r.LatencyMs
		if !r.OK && lat < float64(stepTimeout)/1e6 {
			lat = float64(stepTimeout) / 1e6
		}
		rep.LatencyMs = append(rep.LatencyMs, lat)
		late = append(late, r.LateMs)
		service = append(service, r.ServiceMs)
	}
	lateD := summarize(late)
	if lateD.Tail > lateLimitMs {
		rep.Invalid = fmt.Sprintf("the generator started steps up to %.2f ms late (p%g of %d steps), above the %.0f ms limit", lateD.Tail, lateD.TailP, lateD.N, lateLimitMs)
	}
	served, senderHits, sizeHits := hitCounts(in, steps, res)
	rep.Throughput = float64(served) / wall.Seconds()
	lat := summarize(rep.LatencyMs)
	rep.add("interactive_p50_ms", lat.P50, "ms", fmt.Sprintf("from due time, %d steps at %.0f steps/s", lat.N, interactiveRate))
	rep.add("interactive_tail_ms", lat.Tail, "ms", fmt.Sprintf("p%g, %d samples beyond", lat.TailP, lat.Beyond))
	rep.add("timely_pct", pct(float64(timely), float64(len(steps))), "%", "forecast back before the stream's next event was due")
	rep.add("sender_hit_pct", pct(float64(senderHits), float64(served)), "%", "")
	rep.add("size_hit_pct", pct(float64(sizeHits), float64(served)), "%", "")
	rep.add("loadgen.late_tail_ms", lateD.Tail, "ms", fmt.Sprintf("p%g, median %.3f ms, limit %.0f ms", lateD.TailP, lateD.P50, lateLimitMs))
	svc := summarize(service)
	rep.add("interactive_service_p50_ms", svc.P50, "ms", fmt.Sprintf("send to completion; tail p%g %.3f ms", svc.TailP, svc.Tail))

	want, locked := offlineForecasts(in, steps)
	mismatched := 0
	wantSender, wantSize := 0, 0
	for i, st := range steps {
		snd, sz := in.Streams[st.Stream].at(st.J + 1)
		if want[i].SenderOK && want[i].Sender == snd {
			wantSender++
		}
		if want[i].SizeOK && want[i].Size == sz {
			wantSize++
		}
		if res[i].OK && res[i].Forecast != want[i] {
			mismatched++
		}
	}
	rep.check("steps served", firstErr == nil, "%d of %d steps failed", rep.Failed, rep.Attempted)
	rep.check("hit rates", senderHits == wantSender && sizeHits == wantSize && mismatched == 0,
		"served sender/size hits %d/%d, offline %d/%d, %d forecasts differ", senderHits, sizeHits, wantSender, wantSize, mismatched)

	var vars struct {
		BackendStats map[string]struct {
			Errors  int64 `json:"errors"`
			Retries int64 `json:"retries"`
		} `json:"backend_stats"`
	}
	if err := getJSON(ctx, sut.base+"/debug/vars", &vars); err != nil {
		rep.check("gateway vars", false, "%v", err)
	}
	var retries, backendErrs int64
	for _, b := range vars.BackendStats {
		retries += b.Retries
		backendErrs += b.Errors
	}
	rep.add("gateway.retries", float64(retries), "count", "")
	rep.add("gateway.backend_errors", float64(backendErrs), "count", "")
	rep.add("periodic_events_pct", periodicSteps(in, steps), "%", "share of steps from bt/cg/lu streams")
	rep.add("strategy.locked_pct", locked, "%", "steps after which the sender DPD was locked")
	rss, err := sut.close()
	rep.PeakRSSMB = rss
	rep.check("processes exit", err == nil, "%v", err)
	return rep, nil
}

func periodicSteps(in *inputs, steps []step) float64 {
	p := 0
	for _, st := range steps {
		if in.Streams[st.Stream].Periodic {
			p++
		}
	}
	return pct(float64(p), float64(len(steps)))
}
