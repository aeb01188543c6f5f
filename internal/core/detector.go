package core

import "fmt"

// Detector is the Dynamic Periodicity Detector: it maintains a sliding
// window of the most recent samples of a stream and, for every candidate
// lag m in 1..MaxLag, the number of positions at which the window differs
// from itself shifted by m. A lag with zero mismatches is a period of the
// window (equation (1) of the paper evaluates to zero).
//
// Mismatch counts are maintained incrementally: each Observe call touches
// only the pairs gained and lost at the window boundaries, so the cost per
// observation is O(MaxLag) regardless of the window size.
//
// Detector is not safe for concurrent use; wrap it if multiple goroutines
// feed the same stream.
type Detector struct {
	cfg      Config
	win      *ring
	mismatch []int // mismatch[m] for m in 1..MaxLag (index 0 unused)
	observed int64 // total samples ever observed
}

// NewDetector returns a Detector for the given configuration. Zero fields
// in cfg are replaced by DefaultConfig values; an invalid configuration
// panics, since it is a programming error rather than a runtime condition.
func NewDetector(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Detector{
		cfg:      cfg,
		win:      newRing(cfg.WindowSize),
		mismatch: make([]int, cfg.MaxLag+1),
	}
}

// Config returns the configuration the detector was built with (after
// defaulting).
func (d *Detector) Config() Config { return d.cfg }

// Len returns the number of samples currently held in the window.
func (d *Detector) Len() int { return d.win.Len() }

// Observed returns the total number of samples ever observed, including
// those that have since left the window.
func (d *Detector) Observed() int64 { return d.observed }

// Window returns a copy of the current window contents, oldest first.
func (d *Detector) Window() []int64 { return d.win.Snapshot() }

// Reset discards all state, returning the detector to its initial
// condition without reallocating.
func (d *Detector) Reset() {
	d.win.Reset()
	for i := range d.mismatch {
		d.mismatch[i] = 0
	}
	d.observed = 0
}

// Observe appends one sample to the window, updating all per-lag mismatch
// counts incrementally. Both passes read the window through the ring's
// two contiguous segments, so each is at most two plain slice loops over
// MaxLag samples in total.
func (d *Detector) Observe(x int64) {
	if d.win.Full() {
		// The oldest sample is about to be evicted. For every lag m the
		// pair in which the evicted sample is the older element — the pair
		// (window[m], window[0]) — leaves the set of compared positions.
		// window[1..lags] is old[1:] continued into recent.
		old, recent := d.win.Segments()
		mm := d.mismatch[1 : min(d.cfg.MaxLag, d.win.Len()-1)+1] // mm[j]: lag j+1
		head := old[1:min(len(old), len(mm)+1)]
		retire(mm[:len(head)], head, old[0])
		mm = mm[len(head):]
		retire(mm, recent[:len(mm)], old[0])
	}
	d.win.Push(x)
	d.observed++
	// The new sample forms one new pair per lag: (x, window[n-1-m]). The
	// partners are the samples before x, newest first, so the walk runs
	// backwards over the recent segment and then over the old one.
	old, recent := d.win.Segments()
	if len(recent) > 0 {
		recent = recent[:len(recent)-1]
	} else {
		old = old[:len(old)-1]
	}
	mm := d.mismatch[1 : min(d.cfg.MaxLag, len(old)+len(recent))+1]
	k := min(len(recent), len(mm))
	admitReversed(mm[:k], recent[len(recent)-k:], x)
	mm = mm[k:]
	admitReversed(mm, old[len(old)-len(mm):], x)
}

// retire removes the pairs (s[j], v) from the counts: cnt[j] drops by one
// wherever s[j] != v. cnt and s have equal length.
func retire(cnt []int, s []int64, v int64) {
	cnt = cnt[:len(s)]
	for j, w := range s {
		cnt[j] -= differs(w, v)
	}
}

// admitReversed adds the pairs (v, s[len(s)-1-j]) to the counts: cnt[j]
// grows by one wherever that sample differs from v. cnt and s have equal
// length.
func admitReversed(cnt []int, s []int64, v int64) {
	cnt = cnt[:len(s)]
	for j, w := range s {
		cnt[len(cnt)-1-j] += differs(w, v)
	}
}

// differs is 1 when a != b and 0 otherwise. It compiles to a flag move
// rather than a branch, so the compare loops cost the same whatever the
// mismatch pattern of the stream.
func differs(a, b int64) int {
	if a != b {
		return 1
	}
	return 0
}

// Distance returns d(m) from equation (1) computed over the current
// window: the number of positions i for which x[i] != x[i-m]. The result
// is produced from the incrementally maintained counts; DistanceDirect
// recomputes it from scratch and is used by the tests to validate the
// incremental bookkeeping. Distance panics if m is outside 1..MaxLag.
func (d *Detector) Distance(m int) int {
	if m < 1 || m > d.cfg.MaxLag {
		panic(fmt.Sprintf("core: Distance lag %d out of range 1..%d", m, d.cfg.MaxLag))
	}
	return d.mismatch[m]
}

// DistanceDirect recomputes d(m) by scanning the window. It exists so the
// incremental counts can be cross-checked; production code should use
// Distance.
func (d *Detector) DistanceDirect(m int) int {
	if m < 1 || m > d.cfg.MaxLag {
		panic(fmt.Sprintf("core: DistanceDirect lag %d out of range 1..%d", m, d.cfg.MaxLag))
	}
	n := d.win.Len()
	count := 0
	for i := m; i < n; i++ {
		if d.win.At(i) != d.win.At(i-m) {
			count++
		}
	}
	return count
}

// Period returns the smallest lag m for which the window is exactly
// periodic (d(m) == 0) and for which the window holds at least
// MinRepeats*m samples. ok is false when no such lag exists, which is the
// detector's way of saying "no iterative pattern visible yet".
func (d *Detector) Period() (period int, ok bool) {
	for j, c := range d.mismatch[1 : d.maxPeriod()+1] {
		if c == 0 {
			return j + 1, true
		}
	}
	return 0, false
}

// PeriodWithin returns the smallest lag whose mismatch fraction
// (d(m) / compared pairs) does not exceed tol. PeriodWithin(0) is
// equivalent to Period. It is used by StreamPredictor to lock onto mildly
// perturbed physical-level streams.
func (d *Detector) PeriodWithin(tol float64) (period int, ok bool) {
	if tol < 0 {
		tol = 0
	}
	n := d.win.Len()
	for j, c := range d.mismatch[1 : d.maxPeriod()+1] {
		if c <= allowedMismatches(tol, n-j-1) {
			return j + 1, true
		}
	}
	return 0, false
}

// lockPeriod is the StreamPredictor's period search: Period() when a
// strict period exists, else PeriodWithin(tol), in one pass over the
// lags. A strict period (the window is exactly periodic, the paper's
// d(m) == 0 criterion) is preferred because it captures the full
// iterative pattern of the application even when the stream alternates
// between shorter local sub-patterns (the LU sweeps are the canonical
// example). When no strict period exists — typically on physical-level
// streams perturbed by noise — the first tolerant lag is used instead.
// The answer is the two-scan answer because a strict lag is always also
// a tolerant one.
func (d *Detector) lockPeriod(tol float64) (period int, ok bool) {
	n := d.win.Len()
	tolerant := 0
	for j, c := range d.mismatch[1 : d.maxPeriod()+1] {
		if c == 0 {
			return j + 1, true
		}
		if tolerant == 0 && c <= allowedMismatches(tol, n-j-1) {
			tolerant = j + 1
		}
	}
	return tolerant, tolerant > 0
}

// maxPeriod is the largest lag the current window can report as a period:
// at most MaxLag, at least one compared pair (m < Len()), and MinRepeats
// repetitions present (Len() >= MinRepeats*m).
func (d *Detector) maxPeriod() int {
	n := d.win.Len()
	return max(0, min(d.cfg.MaxLag, n-1, n/d.cfg.MinRepeats))
}

// allowedMismatches is the mismatch budget of a lag with the given number
// of compared pairs under tolerance tol.
func allowedMismatches(tol float64, pairs int) int {
	return int(tol * float64(pairs))
}

// Periodogram returns a copy of the mismatch counts indexed by lag
// (index 0 is unused and always zero). It is useful for offline analysis
// and for plotting the distance profile of a stream.
func (d *Detector) Periodogram() []int {
	out := make([]int, len(d.mismatch))
	copy(out, d.mismatch)
	return out
}

// Predict returns the value the detector expects k observations in the
// future (k >= 1), based on the currently detected period: the prediction
// for x[t+k] is x[t+k-m]. ok is false when no period is detected or k is
// not positive.
func (d *Detector) Predict(k int) (int64, bool) {
	if k < 1 {
		return 0, false
	}
	m, _ := d.Period()
	return d.predictAt(m, k)
}

// predictAt is Predict for k >= 1 and an already resolved period m,
// where m == 0 means no period is detected. Multi-step queries resolve the
// period once and call it per step.
func (d *Detector) predictAt(m, k int) (int64, bool) {
	if m < 1 {
		return 0, false
	}
	// Index of x[t+k-m] within the window, where index n-1 holds x[t].
	// Period guarantees m <= Len(), so the index is in range.
	return d.win.At(d.win.Len() - m + (k-1)%m), true
}

// PredictSeries predicts the next count future values. Predictions that
// cannot be made (no period detected) are reported with OK == false.
func (d *Detector) PredictSeries(count int) []Prediction {
	return d.PredictSeriesInto(make([]Prediction, 0, count), count)
}

// PredictSeriesInto appends the next count predictions to dst and returns
// it, allowing hot-path callers to reuse one buffer across queries. The
// period is resolved once for all count steps.
func (d *Detector) PredictSeriesInto(dst []Prediction, count int) []Prediction {
	m, _ := d.Period()
	for k := 1; k <= count; k++ {
		v, ok := d.predictAt(m, k)
		dst = append(dst, Prediction{Ahead: k, Value: v, OK: ok})
	}
	return dst
}

// Prediction is a single multi-step-ahead prediction: the value expected
// Ahead observations in the future. OK is false when the predictor
// abstained (for example because no period has been detected yet).
type Prediction struct {
	Ahead int
	Value int64
	OK    bool
}

// DetectPeriod is a convenience helper that runs a fresh Detector over an
// entire slice and reports the period detected at the end. It is used by
// the Figure 1 experiment, which asks for the period of the sender and
// size streams of a whole trace rather than for online predictions.
func DetectPeriod(xs []int64, cfg Config) (period int, ok bool) {
	d := NewDetector(cfg)
	for _, x := range xs {
		d.Observe(x)
	}
	return d.Period()
}
