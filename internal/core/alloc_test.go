package core

import (
	"testing"
)

// periodicStream returns n samples of an exactly periodic stream with the
// given period.
func periodicStream(n, period int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i % period)
	}
	return out
}

// TestDetectorObserveZeroAllocs pins the detector's steady-state cost: the
// incremental mismatch update must never allocate.
func TestDetectorObserveZeroAllocs(t *testing.T) {
	d := NewDetector(DefaultConfig())
	stream := periodicStream(4*d.Config().WindowSize, 18)
	for _, x := range stream {
		d.Observe(x)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		d.Observe(stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Detector.Observe allocates %.2f objects per call, want 0", allocs)
	}
}

// TestDetectorRecountZeroAllocs pins the rebuild an unlock pays after a
// deferred lock episode: the in-place rotation and the per-lag compare
// loops must not allocate.
func TestDetectorRecountZeroAllocs(t *testing.T) {
	d := NewDetector(DefaultConfig())
	stream := periodicStream(4*d.Config().WindowSize, 18)
	for _, x := range stream {
		d.Observe(x)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		d.push(stream[i%len(stream)])
		d.recount()
		i++
	})
	if allocs != 0 {
		t.Errorf("Detector.recount allocates %.2f objects per call, want 0", allocs)
	}
}

// TestStreamPredictorObserveZeroAllocs pins the predictor's steady-state
// cost on a stable stream: once locked, observing must never allocate
// (locking itself allocates the pattern snapshot, but locks are rare and
// excluded by the warm-up).
func TestStreamPredictorObserveZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	stream := periodicStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatal("predictor should be locked on a periodic stream after warm-up")
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p.Observe(stream[i%len(stream)])
		i++
	})
	if allocs != 0 {
		t.Errorf("StreamPredictor.Observe allocates %.2f objects per call, want 0", allocs)
	}
	if p.State() != Locked {
		t.Error("predictor lost its lock on a clean periodic stream")
	}
}

// TestStreamPredictorLearningObserveZeroAllocs covers the other steady
// state: a stream with no pattern keeps the predictor learning forever,
// and that path must not allocate either.
func TestStreamPredictorLearningObserveZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	// A strictly increasing stream never shows a period.
	var x int64
	for i := 0; i < 4*p.cfg.WindowSize; i++ {
		p.Observe(x)
		x++
	}
	if p.State() != Learning {
		t.Fatal("predictor should still be learning on an aperiodic stream")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Observe(x)
		x++
	})
	if allocs != 0 {
		t.Errorf("learning-state Observe allocates %.2f objects per call, want 0", allocs)
	}
}

// TestPredictSeriesIntoZeroAllocs pins the buffer-reuse contract of the
// prediction hot path.
func TestPredictSeriesIntoZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	stream := periodicStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	buf := make([]Prediction, 0, 5)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = p.PredictSeriesInto(buf[:0], 5)
	})
	if allocs != 0 {
		t.Errorf("PredictSeriesInto with a reused buffer allocates %.2f objects per call, want 0", allocs)
	}
	if len(buf) != 5 {
		t.Fatalf("got %d predictions, want 5", len(buf))
	}
	for _, pr := range buf {
		if !pr.OK {
			t.Fatalf("locked predictor abstained: %+v", pr)
		}
	}
}

// TestPredictSetIntoZeroAllocs does the same for the order-free query.
func TestPredictSetIntoZeroAllocs(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	stream := periodicStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	buf := make([]int64, 0, 5)
	allocs := testing.AllocsPerRun(1000, func() {
		var ok bool
		buf, ok = p.PredictSetInto(buf[:0], 5)
		if !ok {
			t.Fatal("locked predictor abstained")
		}
	})
	if allocs != 0 {
		t.Errorf("PredictSetInto with a reused buffer allocates %.2f objects per call, want 0", allocs)
	}
}

// TestPredictSeriesIntoMatchesPredictSeries ties the Into variants to the
// allocating originals.
func TestPredictSeriesIntoMatchesPredictSeries(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	for _, x := range periodicStream(4*p.cfg.WindowSize, 7) {
		p.Observe(x)
	}
	plain := p.PredictSeries(5)
	into := p.PredictSeriesInto(nil, 5)
	if len(plain) != len(into) {
		t.Fatalf("length mismatch: %d vs %d", len(plain), len(into))
	}
	for i := range plain {
		if plain[i] != into[i] {
			t.Errorf("prediction %d differs: %+v vs %+v", i, plain[i], into[i])
		}
	}

	plainSet, okPlain := p.PredictSet(5)
	intoSet, okInto := p.PredictSetInto(nil, 5)
	if okPlain != okInto || len(plainSet) != len(intoSet) {
		t.Fatalf("set mismatch: (%v, %v) vs (%v, %v)", plainSet, okPlain, intoSet, okInto)
	}
	for i := range plainSet {
		if plainSet[i] != intoSet[i] {
			t.Errorf("set value %d differs: %d vs %d", i, plainSet[i], intoSet[i])
		}
	}
}
