package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"mpipredict/internal/serve"
	"mpipredict/internal/stream"
	"mpipredict/internal/wire"
)

// The ingest-wire workload: a closed-loop bulk replay of every input
// stream into one mpipredictd over the binary wire protocol, default dpd
// strategy, one session per stream, cfg.Procs connections. Each pass
// replays all inputs under a fresh tenant, so every pass does the same
// work: sessions start cold, learn and (for periodic streams) lock.

// frame is one observe block of one stream.
type frame struct {
	stream   int // index into inputs.Streams
	seq      int64
	from, to int
}

// ingestPlan assigns streams to connections (largest first, each to the
// least-loaded connection) and orders each connection's frames round-robin
// across its streams, one block at a time.
func ingestPlan(in *inputs, conns int) [][]frame {
	order := make([]int, len(in.Streams))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(in.Streams[order[a]].Senders) > len(in.Streams[order[b]].Senders)
	})
	load := make([]int, conns)
	owned := make([][]int, conns)
	for _, s := range order {
		c := 0
		for i := range load {
			if load[i] < load[c] {
				c = i
			}
		}
		load[c] += len(in.Streams[s].Senders)
		owned[c] = append(owned[c], s)
	}
	plan := make([][]frame, conns)
	for c, streams := range owned {
		sort.Ints(streams)
		pos := make([]int, len(streams))
		for left := len(streams); left > 0; {
			left = 0
			for i, s := range streams {
				n := len(in.Streams[s].Senders)
				if pos[i] >= n {
					continue
				}
				to := pos[i] + stream.BlockLen
				if to > n {
					to = n
				}
				plan[c] = append(plan[c], frame{stream: s, seq: int64(pos[i]/stream.BlockLen) + 1, from: pos[i], to: to})
				pos[i] = to
				if to < n {
					left++
				}
			}
		}
	}
	return plan
}

// replayPass sends every frame of the plan under tenant, one goroutine per
// connection, and returns once the server has acknowledged all of them.
func replayPass(ctx context.Context, in *inputs, clients []*wire.Client, plan [][]frame, tenant string) (time.Duration, error) {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, f := range plan[c] {
				s := &in.Streams[f.stream]
				if err := clients[c].ObserveBlock(ctx, tenant, s.Key, "", f.seq, s.Senders[f.from:f.to], s.Sizes[f.from:f.to]); err != nil {
					errs[c] = err
					return
				}
			}
			errs[c] = clients[c].Flush(ctx)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c, err := range errs {
		if err != nil {
			return wall, fmt.Errorf("connection %d: %w", c, err)
		}
	}
	return wall, nil
}

// ingestSUT is one set-up of the ingest-wire workload.
type ingestSUT struct {
	in      *inputs
	daemon  *proc
	base    string
	clients []*wire.Client
	plan    [][]frame
}

func (s *ingestSUT) close() (float64, error) {
	for _, c := range s.clients {
		c.Close()
	}
	return stopAll([]*proc{s.daemon})
}

// setupIngest generates the inputs, starts the daemon, dials the
// connections and warms them with one block of every stream.
func setupIngest(ctx context.Context, cfg config) (*ingestSUT, error) {
	in, err := generateInputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	d, err := startProc(ctx, cfg.Bin, "mpipredictd", []string{"-addr", "127.0.0.1:0", "-listen-wire", "127.0.0.1:0"}, "listening on http://", "wire protocol on ")
	if err != nil {
		return nil, err
	}
	s := &ingestSUT{in: in, daemon: d, base: "http://" + d.addrs["listening on http://"], plan: ingestPlan(in, cfg.Procs)}
	if err := waitReady(ctx, s.base); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < cfg.Procs; i++ {
		c, err := wire.Dial(ctx, d.addrs["wire protocol on "], wire.ClientOptions{})
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	warm := make([][]frame, len(s.plan))
	for c, frames := range s.plan {
		for _, f := range frames {
			if f.seq == 1 {
				warm[c] = append(warm[c], f)
			}
		}
	}
	if _, err := replayPass(ctx, in, s.clients, warm, "warm"); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// setupRepeated runs setup n times, keeps the last instance and tears the
// others down, returning every set-up's seconds.
func setupRepeated[T any](n int, setup func() (T, error), teardown func(T) error) (T, []float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return keep, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			if err := teardown(v); err != nil {
				return keep, nil, err
			}
			continue
		}
		keep = v
	}
	return keep, secs, nil
}

const (
	// setupRuns is how many times each workload sets up per run.
	setupRuns = 3
	// rssPasses is the pass after which ingest-wire reads the daemon's
	// peak RSS. Every pass adds one session per stream, so the reading is
	// taken after a fixed amount of work, not after however many passes
	// the run's length allowed.
	rssPasses = 8
)

func runIngest(ctx context.Context, cfg config, w io.Writer) (*report, error) {
	sut, setupS, err := setupRepeated(setupRuns, func() (*ingestSUT, error) { return setupIngest(ctx, cfg) },
		func(s *ingestSUT) error { _, err := s.close(); return err })
	if err != nil {
		return nil, err
	}
	rep := &report{SetupS: setupS}
	in := sut.in
	var rates []float64
	var passes int
	var frames int64
	for _, p := range sut.plan {
		frames += int64(len(p))
	}
	start := time.Now()
	var runErr error
	for passes < rssPasses || time.Since(start).Seconds() < cfg.Seconds {
		wall, err := replayPass(ctx, in, sut.clients, sut.plan, fmt.Sprintf("p%d", passes))
		rep.Attempted += frames
		passes++
		if err != nil {
			rep.Failed += frames
			runErr = err
			break
		}
		rates = append(rates, float64(in.Events)/wall.Seconds())
		rep.LatencyMs = append(rep.LatencyMs, float64(wall)/1e6)
		if passes == rssPasses {
			kib, err := vmHWM(sut.daemon.cmd.Process.Pid)
			rep.check("daemon RSS", err == nil, "%v", err)
			rep.PeakRSSMB = float64(kib) / 1024
		}
	}
	rep.Throughput = median(rates)
	rep.add("ingest_events_per_s", rep.Throughput, "events/s", fmt.Sprintf("median over %d passes of %d events", len(rates), in.Events))
	rep.check("replay", runErr == nil, "%d passes, error %v", passes, runErr)
	if runErr == nil {
		checkIngest(ctx, sut, passes, rep)
	}
	rep.add("periodic_events_pct", in.periodicShare(), "%", "bt/cg/lu share; is/sweep3d are the rest")
	rep.add("strategy.locked_pct", lockedShare(in.Streams), "%", "sender observes after which the DPD is locked")
	_, err = sut.close()
	rep.check("daemon exit", err == nil, "%v", err)
	return rep, nil
}

// checkIngest verifies exactly-once delivery and answers: no duplicate
// acks, every session observed exactly the events sent, and sampled
// /v1/predict answers equal an in-process registry fed the same blocks.
func checkIngest(ctx context.Context, sut *ingestSUT, passes int, rep *report) {
	in := sut.in
	var dups uint64
	for _, c := range sut.clients {
		_, d := c.Acked()
		dups += d
	}
	rep.check("no duplicates", dups == 0, "%d duplicate acks", dups)

	sessions, err := listSessions(ctx, sut.base)
	if err != nil {
		rep.check("session counts", false, "%v", err)
		return
	}
	byKey := make(map[string]serve.SessionInfo, len(sessions))
	for _, s := range sessions {
		byKey[s.Tenant+"\x00"+s.Stream] = s
	}
	bad := 0
	for p := 0; p < passes; p++ {
		for _, s := range in.Streams {
			got, ok := byKey[fmt.Sprintf("p%d", p)+"\x00"+s.Key]
			blocks := int64((len(s.Senders) + stream.BlockLen - 1) / stream.BlockLen)
			if !ok || got.Observed != int64(len(s.Senders)) || got.LastSeq != blocks {
				bad++
			}
		}
	}
	rep.check("session counts", bad == 0, "%d of %d sessions differ from the events sent", bad, passes*len(in.Streams))

	reg := serve.NewRegistry(serve.Config{})
	tenant := fmt.Sprintf("p%d", passes-1)
	mismatched, sampled := 0, 0
	for i := 0; i < len(in.Streams); i += 5 {
		s := in.Streams[i]
		for from, seq := 0, int64(1); from < len(s.Senders); from, seq = from+stream.BlockLen, seq+1 {
			to := from + stream.BlockLen
			if to > len(s.Senders) {
				to = len(s.Senders)
			}
			if _, _, err := reg.ObserveBlockSeq(tenant, s.Key, "", seq, s.Senders[from:to], s.Sizes[from:to]); err != nil {
				rep.check("sampled predicts", false, "in-process registry: %v", err)
				return
			}
		}
		want, _, _ := reg.ForecastInto(nil, tenant, s.Key, 5)
		got, err := fetchForecast(ctx, sut.base, tenant, s.Key, 5)
		rep.Attempted++
		if err != nil {
			rep.Failed++
		}
		sampled++
		if err != nil || !sameForecasts(got, want) {
			mismatched++
		}
	}
	rep.check("sampled predicts", mismatched == 0, "%d of %d sampled /v1/predict answers differ from an in-process registry", mismatched, sampled)
}

// listSessions pages through GET /v1/sessions.
func listSessions(ctx context.Context, base string) ([]serve.SessionInfo, error) {
	var all []serve.SessionInfo
	for {
		var page serve.SessionsResponse
		if err := getJSON(ctx, fmt.Sprintf("%s/v1/sessions?limit=%d&offset=%d", base, serve.MaxSessionsLimit, len(all)), &page); err != nil {
			return nil, err
		}
		all = append(all, page.Sessions...)
		if len(page.Sessions) == 0 || len(all) >= page.Total {
			return all, nil
		}
	}
}

// predictReply is the body of GET /v1/predict.
type predictReply struct {
	Observed  int64            `json:"observed"`
	Forecasts []serve.Forecast `json:"forecasts"`
}

func fetchForecast(ctx context.Context, base, tenant, key string, k int) ([]serve.Forecast, error) {
	var r predictReply
	q := url.Values{"tenant": {tenant}, "stream": {key}, "k": {fmt.Sprint(k)}}
	err := getJSON(ctx, base+"/v1/predict?"+q.Encode(), &r)
	return r.Forecasts, err
}

func getJSON(ctx context.Context, u string, v interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func sameForecasts(a, b []serve.Forecast) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
