package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"testing"
	"time"

	"mpipredict/internal/serve"
	"mpipredict/internal/stream"
)

func TestSummarizeReportsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return v
	}
	for _, tc := range []struct {
		n      int
		tailP  float64
		tail   float64
		beyond int
	}{
		{10000, 99.9, 9990, 10},
		{1000, 99, 990, 10},
		{999, 95, 950, 49}, // p99 would leave only 9 beyond
		{200, 95, 190, 10},
		{20, 50, 10, 10},
		{19, 100, 19, 0}, // too few for any rung: the maximum, none beyond
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.TailP != tc.tailP || d.Tail != tc.tail || d.Beyond != tc.beyond {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d beyond", tc.n, d.TailP, d.Tail, d.Beyond, tc.tailP, tc.tail, tc.beyond)
		}
	}
	if d := summarize(seq(1000)); d.P50 != 500 {
		t.Errorf("median of 1..1000 = %g, want 500", d.P50)
	}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "gateway", Start: 0, End: 100, Parent: -1},
		{Name: "backend", Start: 10, End: 30, Parent: 0},
		{Name: "backend", Start: 20, End: 40, Parent: 0},  // overlaps its sibling: counted once
		{Name: "backend", Start: 90, End: 120, Parent: 0}, // only [90,100] lies inside the parent
		{Name: "strategy", Start: 12, End: 18, Parent: 1}, // a grandchild: not the gateway's child
		{Name: "other", Start: 200, End: 210, Parent: -1},
	}
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNestsSpansAcrossCalls(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("off", 1); id != -1 {
		t.Fatalf("begin with tracing off returned %d", id)
	}
	tr.on.Store(true)
	outer := tr.begin("outer", 7)
	inner := tr.begin("inner", -1)
	tr.leaf("leaf", tr.now())
	tr.end(inner)
	tr.leaf("sibling", tr.now())
	tr.end(outer)
	s := tr.snapshot()
	if len(s) != 4 {
		t.Fatalf("%d spans, want 4", len(s))
	}
	wantParent := map[string]int{"outer": -1, "inner": outer, "leaf": inner, "sibling": outer}
	for _, sp := range s {
		if sp.Parent != wantParent[sp.Name] || sp.Req != 7 {
			t.Errorf("%s: parent %d req %d, want parent %d req 7", sp.Name, sp.Parent, sp.Req, wantParent[sp.Name])
		}
		if sp.End < sp.Start {
			t.Errorf("%s ends before it starts", sp.Name)
		}
	}
}

func TestTimingCountsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// Due at 10 ms, the connection was busy until 15 ms, the step started
	// at 16 ms and finished at 20 ms: 10 ms of latency, of which only
	// 1 ms is the generator's own lateness.
	lat, late := timing(10*ms, 15*ms, 16*ms, 20*ms)
	if lat != 10 || late != 1 {
		t.Errorf("timing = %g ms latency, %g ms late; want 10, 1", lat, late)
	}
	// An idle connection and a punctual start: no lateness.
	if lat, late := timing(10*ms, 2*ms, 10*ms, 13*ms); lat != 3 || late != 0 {
		t.Errorf("timing = %g, %g; want 3, 0", lat, late)
	}
}

func TestOpenLoopChargesAStallToLaterSteps(t *testing.T) {
	in := &inputs{Streams: []inputStream{{Key: "s", Senders: []int64{1}, Sizes: []int64{1}}}}
	steps := []step{{N: 0, Due: 0}, {N: 1, Due: 10 * time.Millisecond}, {N: 2, Due: 200 * time.Millisecond}}
	res, _ := openLoop(context.Background(), in, []*stepClient{nil}, steps, func(_ context.Context, _ *stepClient, st step) (serve.Forecast, error) {
		if st.N == 0 {
			time.Sleep(60 * time.Millisecond) // a stall
		}
		return serve.Forecast{}, nil
	})
	// Step 1 was due at 10 ms but could only start after the stall ended
	// near 60 ms: its latency counts from the due time, and the wait is
	// not the generator's lateness.
	if res[1].LatencyMs < 45 {
		t.Errorf("step 1 latency %.1f ms, want at least 45 (it waited behind the stall)", res[1].LatencyMs)
	}
	if res[1].LateMs > 20 {
		t.Errorf("step 1 charged %.1f ms of generator lateness for the system's stall", res[1].LateMs)
	}
	// Step 2 is due long after the stall: on time again.
	if res[2].LatencyMs > 40 {
		t.Errorf("step 2 latency %.1f ms, want near 0", res[2].LatencyMs)
	}
}

func TestHitCountsScoreTheNextMessage(t *testing.T) {
	in := &inputs{Streams: []inputStream{{Key: "s", Senders: []int64{0, 1, 2}, Sizes: []int64{10, 11, 12}}}}
	steps := []step{{N: 0, J: 0}, {N: 1, J: 1}, {N: 2, J: 2}, {N: 3, J: 3}}
	res := []stepResult{
		{OK: true, Forecast: serve.Forecast{Sender: 1, SenderOK: true, Size: 11, SizeOK: true}},  // both hit
		{OK: true, Forecast: serve.Forecast{Sender: 2, SenderOK: false, Size: 12, SizeOK: true}}, // abstained sender is a miss
		{OK: true, Forecast: serve.Forecast{Sender: 0, SenderOK: true, Size: 99, SizeOK: true}},  // wraps to event 0: sender hit
		{OK: false, Forecast: serve.Forecast{Sender: 1, SenderOK: true}},                         // failed steps are not served
	}
	served, snd, sz := hitCounts(in, steps, res)
	if served != 3 || snd != 2 || sz != 2 {
		t.Errorf("hitCounts = served %d, sender %d, size %d; want 3, 2, 2", served, snd, sz)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, err := generateInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generateInputs(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.encode(), b.encode()) {
		t.Error("seed 1 generated different inputs on two runs")
	}
	if bytes.Equal(a.encode(), c.encode()) {
		t.Error("seeds 1 and 2 generated identical inputs")
	}
	if share := a.periodicShare(); share <= 0 || share >= 100 {
		t.Errorf("periodic share %g%%: the inputs must mix periodic and aperiodic apps", share)
	}
}

func TestIngestPlanSendsEveryEventOnce(t *testing.T) {
	in := &inputs{}
	for _, n := range []int{1, stream.BlockLen, stream.BlockLen + 1, 3*stream.BlockLen + 7} {
		in.Streams = append(in.Streams, inputStream{Senders: make([]int64, n), Sizes: make([]int64, n)})
		in.Events += n
	}
	covered := make([]int, len(in.Streams))
	nextSeq := make([]int64, len(in.Streams))
	for _, frames := range ingestPlan(in, 2) {
		for _, f := range frames {
			if f.from != covered[f.stream] || f.to-f.from > stream.BlockLen || f.seq != nextSeq[f.stream]+1 {
				t.Fatalf("frame %+v out of order", f)
			}
			covered[f.stream], nextSeq[f.stream] = f.to, f.seq
		}
	}
	for i, s := range in.Streams {
		if covered[i] != len(s.Senders) {
			t.Errorf("stream %d: %d of %d events sent", i, covered[i], len(s.Senders))
		}
	}
}

func TestReproductionCheckRejectsAWrongReference(t *testing.T) {
	out, err := os.ReadFile("testdata/reproduce-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{Seed: 1}
	rep := &report{}
	h := checkReproduction(rep, cfg, out, seed1Headline)
	if !rep.passed() {
		t.Fatalf("the seed-1 report fails its own headline check: %+v", rep.Checks)
	}
	if h.Events != 173630 {
		t.Errorf("Table 1 events = %d, want 173630", h.Events)
	}
	wrong := seed1Headline
	wrong.SenderMeanPct = 95.05
	rep = &report{}
	checkReproduction(rep, cfg, out, wrong)
	if rep.passed() {
		t.Error("a wrong expected sender-mean passed the check")
	}
	// Other seeds have no pinned values: only the parse is checked.
	rep = &report{}
	checkReproduction(rep, config{Seed: 2}, out, wrong)
	if !rep.passed() {
		t.Errorf("seed 2 was held to seed 1's values: %+v", rep.Checks)
	}
}

// encode serializes the streams exactly as they are served, so two
// input sets are equal exactly when their encodings are.
func (in *inputs) encode() []byte {
	var b []byte
	for _, s := range in.Streams {
		b = binary.AppendUvarint(b, uint64(len(s.Key)))
		b = append(b, s.Key...)
		b = binary.AppendUvarint(b, uint64(len(s.Senders)))
		for i := range s.Senders {
			b = binary.AppendVarint(b, s.Senders[i])
			b = binary.AppendVarint(b, s.Sizes[i])
		}
	}
	return b
}
