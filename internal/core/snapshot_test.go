package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// restore is a test helper that fails on error.
func restore(t *testing.T, s PredictorSnapshot) *StreamPredictor {
	t.Helper()
	p, err := RestoreStreamPredictor(s)
	if err != nil {
		t.Fatalf("RestoreStreamPredictor: %v", err)
	}
	return p
}

// TestSnapshotRoundTripLocked pins the core contract: a restored predictor
// is indistinguishable from the original, both in its re-snapshot and in
// every future prediction and observation.
func TestSnapshotRoundTripLocked(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	stream := periodicStream(4*p.cfg.WindowSize, 18)
	for _, x := range stream {
		p.Observe(x)
	}
	if p.State() != Locked {
		t.Fatal("predictor should be locked after a periodic warm-up")
	}

	snap := p.Snapshot()
	q := restore(t, snap)
	if again := q.Snapshot(); !reflect.DeepEqual(snap, again) {
		t.Fatalf("snapshot not stable across restore:\n got %+v\nwant %+v", again, snap)
	}

	// The restored predictor must behave identically from here on.
	for i := 0; i < 3*p.cfg.WindowSize; i++ {
		x := stream[i%len(stream)]
		for k := 1; k <= 5; k++ {
			pv, pok := p.Predict(k)
			qv, qok := q.Predict(k)
			if pv != qv || pok != qok {
				t.Fatalf("step %d horizon %d: original predicts (%d,%v), restored (%d,%v)", i, k, pv, pok, qv, qok)
			}
		}
		p.Observe(x)
		q.Observe(x)
	}
	if p.Counters() != q.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", p.Counters(), q.Counters())
	}
}

// TestSnapshotRoundTripStates walks the predictor through fresh, learning
// and mid-confirmation states and checks each snapshot restores exactly.
func TestSnapshotRoundTripStates(t *testing.T) {
	cfg := Config{WindowSize: 32, MaxLag: 12, MinRepeats: 2, ConfirmRuns: 4, HoldDown: 2,
		LockTolerance: 0.1, RelearnWindow: 8, RelearnMissRate: 0.5}
	feeds := map[string][]int64{
		"fresh":      nil,
		"aperiodic":  {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
		"confirming": {0, 1, 2, 0, 1, 2, 0, 1}, // period seen but not yet ConfirmRuns times
	}
	for name, feed := range feeds {
		t.Run(name, func(t *testing.T) {
			p := NewStreamPredictor(cfg)
			for _, x := range feed {
				p.Observe(x)
			}
			snap := p.Snapshot()
			q := restore(t, snap)
			if again := q.Snapshot(); !reflect.DeepEqual(snap, again) {
				t.Fatalf("snapshot not stable:\n got %+v\nwant %+v", again, snap)
			}
			// Drive both to a lock and beyond; they must stay in lockstep.
			for i := 0; i < 6*cfg.WindowSize; i++ {
				x := int64(i % 3)
				p.Observe(x)
				q.Observe(x)
			}
			if !reflect.DeepEqual(p.Snapshot(), q.Snapshot()) {
				t.Fatal("predictors diverged after continued observation")
			}
		})
	}
}

// TestSnapshotRoundTripNoisy exercises the relearn machinery: snapshots
// taken mid-stream on a perturbed stream (hold-down streaks, partially
// filled outcome rings, relocks) must restore exactly.
func TestSnapshotRoundTripNoisy(t *testing.T) {
	cfg := Config{WindowSize: 64, MaxLag: 24, MinRepeats: 2, ConfirmRuns: 2, HoldDown: 3,
		LockTolerance: 0.15, RelearnWindow: 12, RelearnMissRate: 0.4}
	rng := rand.New(rand.NewSource(7))
	p := NewStreamPredictor(cfg)
	for i := 0; i < 4000; i++ {
		x := int64(i % 6)
		if rng.Intn(10) == 0 {
			x = int64(rng.Intn(6)) // perturb
		}
		p.Observe(x)
		if i%97 == 0 {
			snap := p.Snapshot()
			q := restore(t, snap)
			if again := q.Snapshot(); !reflect.DeepEqual(snap, again) {
				t.Fatalf("step %d: snapshot not stable:\n got %+v\nwant %+v", i, again, snap)
			}
		}
	}
	if p.Counters().Locks == 0 {
		t.Fatal("test stream never locked; the scenario is not exercising what it should")
	}
}

// TestRestoreRecountsExactCounts checks that the counts a restore rebuilds
// from the window are exact, for a locked snapshot taken deep in a lock
// episode (whose own counts were deferred), a learning snapshot of a full
// wrapped window and a learning snapshot of a partial window.
func TestRestoreRecountsExactCounts(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(13))
	locked := NewStreamPredictor(cfg)
	for _, x := range periodicStream(3*cfg.WindowSize+5, 18) {
		locked.Observe(x)
	}
	if locked.State() != Locked || !locked.det.stale {
		t.Fatalf("warm-up should end deep in a deferred lock episode (state %v, stale %v)", locked.State(), locked.det.stale)
	}
	learning := NewStreamPredictor(cfg)
	for i := 0; i < 2*cfg.WindowSize+37; i++ {
		learning.Observe(rng.Int63n(6))
	}
	partial := NewStreamPredictor(cfg)
	for i := 0; i < cfg.WindowSize/3; i++ {
		partial.Observe(rng.Int63n(6))
	}
	for _, tc := range []struct {
		name  string
		p     *StreamPredictor
		state LockState
	}{{"locked", locked, Locked}, {"learning", learning, Learning}, {"partial", partial, Learning}} {
		q := restore(t, tc.p.Snapshot())
		if q.State() != tc.state || q.det.stale {
			t.Fatalf("%s: restored state %v, stale %v", tc.name, q.State(), q.det.stale)
		}
		for m := 1; m <= cfg.MaxLag; m++ {
			if got, want := q.det.Distance(m), q.det.DistanceDirect(m); got != want {
				t.Fatalf("%s: restored Distance(%d)=%d, DistanceDirect=%d", tc.name, m, got, want)
			}
		}
	}
}

// TestSnapshotIsDetached verifies the snapshot shares no memory with the
// live predictor: observing after Snapshot must not change it.
func TestSnapshotIsDetached(t *testing.T) {
	p := NewStreamPredictor(Config{WindowSize: 16, MaxLag: 6})
	for i := 0; i < 64; i++ {
		p.Observe(int64(i % 4))
	}
	snap := p.Snapshot()
	winBefore := append([]int64(nil), snap.Window...)
	patBefore := append([]int64(nil), snap.Pattern...)
	for i := 0; i < 100; i++ {
		p.Observe(int64(i % 5))
	}
	if !reflect.DeepEqual(snap.Window, winBefore) || !reflect.DeepEqual(snap.Pattern, patBefore) {
		t.Fatal("snapshot mutated by continued observation")
	}
}

// TestSnapshotPreservesExplicitZeroConfig guards the reason restore
// bypasses the defaulting constructors: HoldDown 0 and LockTolerance 0 are
// valid explicit settings that withDefaults would rewrite.
func TestSnapshotPreservesExplicitZeroConfig(t *testing.T) {
	cfg := Config{WindowSize: 16, MaxLag: 6, MinRepeats: 2, ConfirmRuns: 1,
		HoldDown: 0, LockTolerance: 0, RelearnWindow: 0, RelearnMissRate: 0}
	// Bypass NewStreamPredictor's defaulting the same way a caller with an
	// explicit full config cannot; build the state via the public API by
	// validating first that the config is legal.
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	q := restore(t, PredictorSnapshot{Config: cfg})
	if got := q.Snapshot().Config; got != cfg {
		t.Fatalf("config rewritten on restore: got %+v, want %+v", got, cfg)
	}
}

// TestRestoreRejectsCorruptSnapshots enumerates the validation surface.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	p := NewStreamPredictor(DefaultConfig())
	for _, x := range periodicStream(4*p.cfg.WindowSize, 18) {
		p.Observe(x)
	}
	good := p.Snapshot()
	if good.State != Locked {
		t.Fatal("expected a locked snapshot")
	}

	corrupt := map[string]func(*PredictorSnapshot){
		"invalid config":          func(s *PredictorSnapshot) { s.Config.WindowSize = 1 },
		"oversized window":        func(s *PredictorSnapshot) { s.Window = make([]int64, s.Config.WindowSize+1) },
		"observed below window":   func(s *PredictorSnapshot) { s.WindowObserved = int64(len(s.Window)) - 1 },
		"locked without pattern":  func(s *PredictorSnapshot) { s.Pattern = nil },
		"pattern beyond MaxLag":   func(s *PredictorSnapshot) { s.Pattern = make([]int64, s.Config.MaxLag+1) },
		"phase out of range":      func(s *PredictorSnapshot) { s.Phase = len(s.Pattern) },
		"negative phase":          func(s *PredictorSnapshot) { s.Phase = -1 },
		"negative miss streak":    func(s *PredictorSnapshot) { s.MissStreak = -1 },
		"oversized outcome ring":  func(s *PredictorSnapshot) { s.Recent = make([]bool, s.Config.RelearnWindow+1) },
		"negative candidate runs": func(s *PredictorSnapshot) { s.CandidateRuns = -1 },
		"unknown lock state":      func(s *PredictorSnapshot) { s.State = LockState(42) },
		"learning with pattern": func(s *PredictorSnapshot) {
			s.State = Learning
			// Pattern left in place from the locked snapshot.
		},
	}
	for name, mutate := range corrupt {
		t.Run(name, func(t *testing.T) {
			s := good
			s.Window = append([]int64(nil), good.Window...)
			s.Pattern = append([]int64(nil), good.Pattern...)
			s.Recent = append([]bool(nil), good.Recent...)
			mutate(&s)
			if _, err := RestoreStreamPredictor(s); err == nil {
				t.Fatalf("restore accepted a corrupt snapshot (%s)", name)
			}
		})
	}
}
