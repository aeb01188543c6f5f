package core

// LockState describes what the StreamPredictor is currently doing.
type LockState int

const (
	// Learning means no pattern has been confirmed yet; the predictor
	// abstains from predictions that require a locked pattern and falls
	// back to the bare detector when it already sees a strict period.
	Learning LockState = iota
	// Locked means a pattern snapshot has been taken and predictions are
	// served from it.
	Locked
)

// String returns a human-readable name for the state.
func (s LockState) String() string {
	switch s {
	case Learning:
		return "learning"
	case Locked:
		return "locked"
	default:
		return "unknown"
	}
}

// Counters aggregates what happened to a StreamPredictor over its
// lifetime. They are exposed so the evaluation harness and the
// scalability applications can reason about predictor behaviour (e.g. how
// often it had to relearn on a noisy physical stream).
type Counters struct {
	Observed    int64 // samples fed to Observe
	Locks       int64 // transitions Learning -> Locked
	Unlocks     int64 // transitions Locked -> Learning (hold-down exceeded)
	HitsWhile   int64 // observations that matched the locked expectation
	MissesWhile int64 // observations that contradicted the locked expectation
}

// StreamPredictor implements the online prediction policy built on top of
// the DPD. It follows the behaviour described in sections 4.2 and 5.3 of
// the paper:
//
//   - While learning, it feeds the detector and waits until the same
//     period has been detected for ConfirmRuns consecutive observations.
//   - It then locks a snapshot of one full pattern. The snapshot is a
//     per-phase consensus (majority vote across the repetitions present in
//     the window), so a single perturbed sample in the window does not
//     poison the locked pattern.
//   - While locked, every prediction is read from the pattern at the
//     appropriate phase, so several future values (+1 … +5 in the paper)
//     are available at once. Observations that contradict the pattern are
//     counted; HoldDown consecutive misses drop the lock and learning
//     starts again from the current window.
//
// A lock episode feeds its first recountBreakEven observes to the
// detector incrementally and only appends the rest to its window; unlock
// rebuilds the counts once. Short episodes (relock storms on noisy
// streams) therefore cost what they always did, and long ones pay one
// rebuild instead of O(MaxLag) per observe. The detector's counts are
// exact whenever the predictor is learning.
type StreamPredictor struct {
	cfg Config
	det *Detector

	state      LockState
	pattern    []int64
	phase      int // index into pattern of the next expected observation
	missStreak int

	// lockedRun counts the incremental observes of the current lock
	// episode, up to deferAfter (recountBreakEven of the config); past
	// that the episode only pushes samples into the detector window.
	lockedRun  int
	deferAfter int

	// recent is a ring of hit/miss outcomes observed while locked; it
	// backs the miss-rate relearn trigger (Config.RelearnWindow /
	// RelearnMissRate).
	recent       []bool
	recentIdx    int
	recentCount  int
	recentMisses int

	candidatePeriod int
	candidateRuns   int

	// scratchCounts is reused across lock events so that locking onto a
	// pattern does not allocate one counting map per phase every time
	// (predictors on noisy physical streams relock often). The window
	// itself is read in place through the ring's segments, never copied.
	scratchCounts map[int64]int

	counters Counters
}

// NewStreamPredictor returns a predictor with the given configuration
// (zero fields take defaults, see Config).
func NewStreamPredictor(cfg Config) *StreamPredictor {
	cfg = cfg.withDefaults()
	p := &StreamPredictor{
		cfg:        cfg,
		det:        NewDetector(cfg),
		state:      Learning,
		deferAfter: recountBreakEven(cfg),
	}
	// Allocate the hit/miss ring up front so the steady-state Observe
	// path never allocates.
	if cfg.RelearnWindow > 0 {
		p.recent = make([]bool, cfg.RelearnWindow)
	}
	return p
}

// State returns the current lock state.
func (p *StreamPredictor) State() LockState { return p.state }

// Config returns the predictor's effective configuration (defaults
// resolved).
func (p *StreamPredictor) Config() Config { return p.cfg }

// Period returns the length of the currently locked pattern, or the
// detector's current period while learning. ok is false when neither is
// available.
func (p *StreamPredictor) Period() (int, bool) {
	if p.state == Locked {
		return len(p.pattern), true
	}
	return p.det.Period()
}

// Pattern returns a copy of the locked pattern, or nil while learning.
func (p *StreamPredictor) Pattern() []int64 {
	if p.state != Locked {
		return nil
	}
	out := make([]int64, len(p.pattern))
	copy(out, p.pattern)
	return out
}

// Counters returns a snapshot of the lifetime counters.
func (p *StreamPredictor) Counters() Counters { return p.counters }

// Reset returns the predictor to its initial state.
func (p *StreamPredictor) Reset() {
	p.det.Reset()
	p.state = Learning
	p.pattern = nil
	p.phase = 0
	p.missStreak = 0
	p.lockedRun = 0
	p.candidatePeriod = 0
	p.candidateRuns = 0
	p.resetRecent()
	p.counters = Counters{}
}

// Observe feeds one sample of the stream to the predictor.
func (p *StreamPredictor) Observe(x int64) {
	p.counters.Observed++
	if p.state == Locked {
		expected := p.pattern[p.phase]
		hit := x == expected
		if hit {
			p.counters.HitsWhile++
			p.missStreak = 0
		} else {
			p.counters.MissesWhile++
			p.missStreak++
		}
		p.recordOutcome(hit)
		p.phase = (p.phase + 1) % len(p.pattern)
		if p.lockedRun < p.deferAfter {
			p.lockedRun++
			p.det.Observe(x)
		} else {
			p.det.push(x)
		}
		if p.missStreak > p.cfg.HoldDown || p.missRateExceeded() {
			p.unlock()
		}
		return
	}

	p.det.Observe(x)
	period, ok := p.det.lockPeriod(p.cfg.LockTolerance)
	if !ok {
		p.candidatePeriod = 0
		p.candidateRuns = 0
		return
	}
	if period == p.candidatePeriod {
		p.candidateRuns++
	} else {
		p.candidatePeriod = period
		p.candidateRuns = 1
	}
	if p.candidateRuns >= p.cfg.ConfirmRuns {
		p.lock(period)
	}
}

// lock captures the consensus pattern of length period from the detector
// window and switches to the Locked state. The next expected observation
// is the one that follows the most recent window sample.
func (p *StreamPredictor) lock(period int) {
	n := p.det.Len()
	if period <= 0 || n < period {
		return
	}
	if p.scratchCounts == nil {
		p.scratchCounts = make(map[int64]int)
	}
	old, recent := p.det.win.Segments()
	p.pattern = consensusPattern(old, recent, period, p.scratchCounts)
	// The window ends at x[t]; the next observation x[t+1] corresponds to
	// pattern phase n mod period when the pattern is anchored at the start
	// of the window.
	p.phase = n % period
	p.state = Locked
	p.missStreak = 0
	p.lockedRun = 0
	p.candidatePeriod = 0
	p.candidateRuns = 0
	p.resetRecent()
	p.counters.Locks++
}

// unlock drops the pattern and returns to learning, rebuilding the
// detector's counts if the episode deferred them.
func (p *StreamPredictor) unlock() {
	p.det.recount()
	p.state = Learning
	p.pattern = nil
	p.phase = 0
	p.missStreak = 0
	p.candidatePeriod = 0
	p.candidateRuns = 0
	p.resetRecent()
	p.counters.Unlocks++
}

// recordOutcome appends a hit/miss outcome to the locked-state ring.
func (p *StreamPredictor) recordOutcome(hit bool) {
	if p.cfg.RelearnWindow <= 0 {
		return
	}
	if p.recentCount == len(p.recent) {
		if !p.recent[p.recentIdx] {
			p.recentMisses--
		}
	} else {
		p.recentCount++
	}
	p.recent[p.recentIdx] = hit
	if !hit {
		p.recentMisses++
	}
	p.recentIdx = (p.recentIdx + 1) % len(p.recent)
}

// missRateExceeded reports whether the locked pattern has been missing too
// often over the recent window to be worth keeping. It only fires once the
// window is full, so a freshly locked pattern gets a fair chance.
func (p *StreamPredictor) missRateExceeded() bool {
	if p.cfg.RelearnWindow <= 0 || p.recentCount < p.cfg.RelearnWindow {
		return false
	}
	return float64(p.recentMisses) > p.cfg.RelearnMissRate*float64(p.recentCount)
}

func (p *StreamPredictor) resetRecent() {
	p.recentIdx = 0
	p.recentCount = 0
	p.recentMisses = 0
	if p.recent != nil {
		for i := range p.recent {
			p.recent[i] = false
		}
	}
}

// Predict returns the expected value k observations ahead (k >= 1).
// While locked it reads the locked pattern; while learning it falls back
// to the detector's strict-period prediction; otherwise it abstains.
func (p *StreamPredictor) Predict(k int) (int64, bool) {
	if k < 1 {
		return 0, false
	}
	return p.predictAt(p.learningPeriod(), k)
}

// learningPeriod resolves, once per forecast, the detector period a
// learning-state prediction reads; it is 0 while locked, when the pattern
// answers instead, and when no strict period is visible.
func (p *StreamPredictor) learningPeriod() int {
	if p.state == Locked {
		return 0
	}
	m, _ := p.det.Period()
	return m
}

// predictAt is Predict with the learning-state period m already resolved
// by learningPeriod.
func (p *StreamPredictor) predictAt(m, k int) (int64, bool) {
	if p.state == Locked {
		return p.pattern[(p.phase+k-1)%len(p.pattern)], true
	}
	return p.det.predictAt(m, k)
}

// PredictSeries predicts the next count values, abstentions included.
func (p *StreamPredictor) PredictSeries(count int) []Prediction {
	return p.PredictSeriesInto(make([]Prediction, 0, count), count)
}

// PredictSeriesInto appends the next count predictions to dst and returns
// it. Hot-path callers pass a reused buffer — typically dst[:0] of the
// previous call — so steady-state multi-step queries perform no
// allocations (see strategy.MessagePredictor.ForecastInto for the
// equivalent message-level query the replay loops use).
func (p *StreamPredictor) PredictSeriesInto(dst []Prediction, count int) []Prediction {
	m := p.learningPeriod()
	for k := 1; k <= count; k++ {
		v, ok := p.predictAt(m, k)
		dst = append(dst, Prediction{Ahead: k, Value: v, OK: ok})
	}
	return dst
}

// PredictSet returns the multiset of values expected over the next count
// observations, without regard to order. Section 5.3 of the paper argues
// that for buffer pre-allocation the receiver only needs to know *which*
// senders (and which sizes) are coming next, not their exact order; this
// is the query that application makes.
func (p *StreamPredictor) PredictSet(count int) ([]int64, bool) {
	out, ok := p.PredictSetInto(make([]int64, 0, count), count)
	if !ok {
		return nil, false
	}
	return out, true
}

// PredictSetInto appends the next-count value multiset to dst and returns
// it, with ok == false when any of the underlying predictions abstains.
// On abstention the (partially filled) buffer is still returned so a
// caller that reuses it — dst[:0] of the previous call — keeps its
// capacity across abstaining queries.
func (p *StreamPredictor) PredictSetInto(dst []int64, count int) ([]int64, bool) {
	m := p.learningPeriod()
	for k := 1; k <= count; k++ {
		v, ok := p.predictAt(m, k)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
	}
	return dst, true
}

// consensusPattern builds a pattern of the given period from a window by
// majority vote over all samples that share the same phase. The window is
// passed as the detector ring's two segments (old followed by recent), so
// locking reads it in place. With a clean window this is exactly the last
// period of the window; with isolated perturbations the majority of
// repetitions wins. The scratch map is cleared and reused for every phase,
// so one lock event costs zero map allocations instead of one per phase;
// the walk visits each window sample twice in total (O(window)) rather
// than once per phase.
func consensusPattern(old, recent []int64, period int, scratch map[int64]int) []int64 {
	n := len(old) + len(recent)
	at := func(i int) int64 {
		if i < len(old) {
			return old[i]
		}
		return recent[i-len(old)]
	}
	pattern := make([]int64, period)
	for ph := 0; ph < period; ph++ {
		clear(scratch)
		for i := ph; i < n; i += period {
			scratch[at(i)]++
		}
		best := int64(0)
		bestCount := -1
		// Deterministic tie-break: prefer the value seen most recently in
		// the window at this phase. Walking newest-first and requiring a
		// strictly greater count reproduces the seed implementation's
		// choice exactly.
		last := ph + ((n-1-ph)/period)*period
		for i := last; i >= 0; i -= period {
			v := at(i)
			if c := scratch[v]; c > bestCount {
				best = v
				bestCount = c
			}
		}
		pattern[ph] = best
	}
	return pattern
}
