package core

import (
	"math/rand"
	"testing"
)

// deferRun drives a StreamPredictor through lock episodes whose lengths
// straddle recountBreakEven, and checks the deferred-count invariant after
// every observe:
//
//   - while learning (so also right after every unlock) the detector's
//     counts are fresh and equal DistanceDirect for every lag;
//   - while locked they are stale exactly when the episode has run past
//     deferAfter observes.
//
// Two predictors restored from snapshots, one taken in a deferred lock
// episode and one while learning, follow the same samples and must report
// the same Counters and +1..+5 forecasts at every step.
type deferRun struct {
	t   *testing.T
	rng *rand.Rand
	p   *StreamPredictor

	step     int
	run      int   // observes of the current lock episode
	episodes []int // lengths of finished lock episodes

	spawnStaleAfter, spawnLearningAfter int
	followers                           []*StreamPredictor
	pb, qb                              []Prediction
}

func (r *deferRun) feed(x int64) {
	r.t.Helper()
	p := r.p
	wasLocked := p.State() == Locked
	p.Observe(x)
	r.step++
	if wasLocked {
		r.run++
	}
	switch p.State() {
	case Learning:
		if wasLocked {
			r.episodes = append(r.episodes, r.run)
			r.run = 0
		}
		if p.det.stale {
			r.t.Fatalf("step %d: counts stale while learning", r.step)
		}
		for m := 1; m <= p.cfg.MaxLag; m++ {
			if got, want := p.det.Distance(m), p.det.DistanceDirect(m); got != want {
				r.t.Fatalf("step %d (unlocked: %v): Distance(%d)=%d, DistanceDirect=%d", r.step, wasLocked, m, got, want)
			}
		}
	case Locked:
		if want := r.run > p.deferAfter; p.det.stale != want {
			r.t.Fatalf("step %d: episode at %d observes (break-even %d), stale=%v", r.step, r.run, p.deferAfter, p.det.stale)
		}
	}

	for _, q := range r.followers {
		q.Observe(x)
		if p.Counters() != q.Counters() {
			r.t.Fatalf("step %d: counters diverged from restored predictor: %+v vs %+v", r.step, p.Counters(), q.Counters())
		}
		r.pb = p.PredictSeriesInto(r.pb[:0], 5)
		r.qb = q.PredictSeriesInto(r.qb[:0], 5)
		for k := range r.pb {
			if r.pb[k] != r.qb[k] {
				r.t.Fatalf("step %d: forecast +%d diverged from restored predictor: %+v vs %+v", r.step, k+1, r.pb[k], r.qb[k])
			}
		}
	}
	if r.spawnStaleAfter >= 0 && r.step > r.spawnStaleAfter && p.det.stale {
		r.spawn()
		r.spawnStaleAfter = -1
	}
	if r.spawnLearningAfter >= 0 && r.step > r.spawnLearningAfter && p.State() == Learning {
		r.spawn()
		r.spawnLearningAfter = -1
	}
}

func (r *deferRun) spawn() {
	r.t.Helper()
	q, err := RestoreStreamPredictor(r.p.Snapshot())
	if err != nil {
		r.t.Fatalf("step %d: restore: %v", r.step, err)
	}
	r.followers = append(r.followers, q)
}

// pattern returns a random pattern of the given period over a small
// alphabet, so values repeat within it as sender and size patterns do.
func (r *deferRun) pattern(period int) []int64 {
	pat := make([]int64, period)
	for i := range pat {
		pat[i] = r.rng.Int63n(6)
	}
	return pat
}

// episode feeds a periodic run until a lock episode reaches about target
// locked observes, and
// then breaks it: either with values outside the alphabet, which miss
// until the hold-down fires (so the episode length is exact), or with a
// phase shift of the same pattern.
func (r *deferRun) episode(target int) {
	p := r.p
	maxPeriod := min(p.cfg.MaxLag, p.cfg.WindowSize/p.cfg.MinRepeats, 40)
	pat := r.pattern(1 + r.rng.Intn(maxPeriod))
	// Locks taken while the window still holds the previous run can be
	// wrong and drop quickly; keep feeding the pattern until one episode
	// lasts long enough.
	i := 0
	for ; i < 3*p.cfg.WindowSize+target; i++ {
		if p.State() == Locked && r.run >= target-(p.cfg.HoldDown+1) {
			break
		}
		r.feed(pat[i%len(pat)])
	}
	if r.rng.Intn(3) == 0 {
		i += 1 + r.rng.Intn(len(pat))
		for n := 0; n < 2*p.cfg.WindowSize && p.State() == Locked; n++ {
			r.feed(pat[i%len(pat)])
			i++
		}
	}
	for p.State() == Locked {
		r.feed(1000 + r.rng.Int63n(1000))
	}
}

// TestDeferredCountsExact runs seeded mixes of lock episodes shorter than,
// equal to and longer than recountBreakEven, noise runs and constant runs,
// at the default geometry and at a small one with MaxLag == WindowSize-1.
func TestDeferredCountsExact(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"maxlag-window-1", Config{WindowSize: 48, MaxLag: 47, MinRepeats: 2, ConfirmRuns: 3, HoldDown: 3,
			LockTolerance: 0.1, RelearnWindow: 12, RelearnMissRate: 0.4}},
	}
	for ci, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + ci)))
			p := NewStreamPredictor(tc.cfg)
			k := p.deferAfter
			if k != recountBreakEven(tc.cfg) || k < 1 {
				t.Fatalf("break-even %d", k)
			}
			r := &deferRun{t: t, rng: rng, p: p,
				spawnStaleAfter:    rng.Intn(20 * k),
				spawnLearningAfter: rng.Intn(20 * k),
			}
			for e := 0; e < 20; e++ {
				switch e % 5 {
				case 0:
					r.episode(1 + rng.Intn(k))
				case 1:
					r.episode(k)
				case 2:
					r.episode(k + 1)
				case 3:
					r.episode(k + 2 + rng.Intn(3*k))
				case 4:
					for n := rng.Intn(2 * tc.cfg.WindowSize); n > 0; n-- {
						r.feed(rng.Int63n(6))
					}
					c := rng.Int63n(6)
					for n := rng.Intn(tc.cfg.WindowSize); n > 0; n-- {
						r.feed(c)
					}
				}
			}
			var short, equal, long int
			for _, n := range r.episodes {
				switch {
				case n < k:
					short++
				case n == k:
					equal++
				default:
					long++
				}
			}
			t.Logf("steps %d episodes %d: %d<k %d==k %d>k", r.step, len(r.episodes), short, equal, long)
			if short == 0 || equal == 0 || long == 0 {
				t.Fatalf("episodes did not straddle the break-even %d: %d shorter, %d equal, %d longer", k, short, equal, long)
			}
			if len(r.followers) != 2 {
				t.Fatalf("restored %d followers, want one from a deferred lock and one from learning", len(r.followers))
			}
		})
	}
}

// TestRecountBreakEvenAtDefaultGeometry pins the ski-rental threshold the
// documentation quotes.
func TestRecountBreakEvenAtDefaultGeometry(t *testing.T) {
	if got := recountBreakEven(DefaultConfig()); got != 207 {
		t.Fatalf("recountBreakEven(DefaultConfig()) = %d, want 207", got)
	}
}
