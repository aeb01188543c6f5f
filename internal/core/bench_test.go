package core

import (
	"math/rand"
	"testing"
)

// The microbenchmarks below pin the per-observation cost of the DPD hot
// path. Run them with -benchmem: the steady-state observe and predict
// paths must report 0 allocs/op (enforced by alloc_test.go), and ns/op
// tracks the O(MaxLag) incremental update the paper's Section 4 design
// calls for, or the O(1) window append of a long lock episode.

func benchStream(n, period int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i % period)
	}
	return out
}

// BenchmarkDetectorObserveFullWindow measures the incremental mismatch
// update once the window has wrapped, i.e. with the eviction half of the
// update active (the existing BenchmarkDetectorObserve starts cold).
func BenchmarkDetectorObserveFullWindow(b *testing.B) {
	d := NewDetector(DefaultConfig())
	stream := benchStream(4*d.Config().WindowSize, 18)
	for _, x := range stream {
		d.Observe(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(stream[i%len(stream)])
	}
}

// BenchmarkStreamPredictorObserveLocked measures the steady-state observe
// path of a locked predictor: expectation check, outcome ring update and
// detector feed. The replayed stream is a whole number of periods long, so
// it never breaks phase at the wrap and the predictor stays locked: past
// the first recountBreakEven observes of the episode the detector feed is
// a window-only push.
func BenchmarkStreamPredictorObserveLocked(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	n := 4 * p.cfg.WindowSize
	benchLockedObserve(b, p, benchStream(n-n%18, 18))
	if p.Counters().Unlocks != 0 {
		b.Fatalf("predictor unlocked %d times on a phase-continuous stream", p.Counters().Unlocks)
	}
}

// BenchmarkStreamPredictorObserveRelockStorm replays a period-18 stream
// whose length (2048) is not a multiple of 18, so it breaks phase at every
// wrap: about one unlock and relock per 80 observes. It pins the worst
// case of the deferred counts, lock episodes a little shorter or longer
// than recountBreakEven.
func BenchmarkStreamPredictorObserveRelockStorm(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	benchLockedObserve(b, p, benchStream(4*p.cfg.WindowSize, 18))
}

// benchLockedObserve warms p on one pass of stream, checks it locked, and
// times observes that keep replaying the stream.
func benchLockedObserve(b *testing.B, p *StreamPredictor, stream []int64) {
	for _, x := range stream {
		p.Observe(x)
	}
	if p.State() != Locked {
		b.Fatal("predictor should be locked after warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(stream[i%len(stream)])
	}
}

// BenchmarkDetectorRecount measures one rebuild of the mismatch counts
// from a full default-geometry window (512 samples, lags to 192), the
// cost an unlock pays after a deferred lock episode. Each iteration pushes
// one sample first, so the ring's head moves and the in-place rotation is
// timed too.
func BenchmarkDetectorRecount(b *testing.B) {
	d := NewDetector(DefaultConfig())
	stream := benchStream(4*d.Config().WindowSize, 18)
	for _, x := range stream {
		d.Observe(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(stream[i%len(stream)])
		d.recount()
	}
}

// BenchmarkStreamPredictorPredict measures a single locked-pattern lookup.
func BenchmarkStreamPredictorPredict(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	for _, x := range benchStream(4*p.cfg.WindowSize, 18) {
		p.Observe(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Predict(i%5 + 1); !ok {
			b.Fatal("locked predictor abstained")
		}
	}
}

// BenchmarkPredictSeriesInto measures the +1..+5 multi-step query with a
// reused caller buffer — the per-message query shape of the scalability
// replays.
func BenchmarkPredictSeriesInto(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	for _, x := range benchStream(4*p.cfg.WindowSize, 18) {
		p.Observe(x)
	}
	buf := make([]Prediction, 0, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.PredictSeriesInto(buf[:0], 5)
	}
	_ = buf
}

// BenchmarkLockRelock measures the lock path (window snapshot + consensus
// vote), which the allocation-lean scratch buffers target: predictors on
// noisy physical streams relock continually.
func BenchmarkLockRelock(b *testing.B) {
	p := NewStreamPredictor(DefaultConfig())
	stream := benchStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	if p.State() != Locked {
		b.Fatal("predictor should be locked after warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.lock(18)
	}
}

// BenchmarkDetectorObserveNoise is the full-window update on a stream with
// no period, whose mismatch pattern no branch predictor can learn: it
// pins the branch-free compare loops (a branchy loop costs about twice as
// much here, and the same as the branch-free one on periodic streams).
func BenchmarkDetectorObserveNoise(b *testing.B) {
	d := NewDetector(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	stream := make([]int64, 4*d.Config().WindowSize)
	for i := range stream {
		stream[i] = rng.Int63n(5)
	}
	for _, x := range stream {
		d.Observe(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(stream[i%len(stream)])
	}
}
