package strategy

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mpipredict/internal/core"
)

func periodicStream(n, period int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i % period)
	}
	return out
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"dpd", "lastvalue", "markov1"} {
		if !Known(want) {
			t.Errorf("strategy %q is not registered (have %v)", want, names)
		}
	}
	if !reflect.DeepEqual(names, append([]string(nil), names...)) || len(names) < 3 {
		t.Fatalf("Names() = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() is not sorted: %v", names)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("no-such-strategy", core.Config{}); err == nil {
		t.Fatal("New accepted an unknown strategy name")
	}
	if !Known("dpd") || Known("no-such-strategy") {
		t.Fatal("Known misreports registration")
	}
}

func TestNewEmptySelectsDefault(t *testing.T) {
	s, err := New("", core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Desc().Name != Default {
		t.Fatalf("empty name built %q, want %q", s.Desc().Name, Default)
	}
}

func TestDescNamesMatchRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Desc().Name; got != name {
			t.Errorf("strategy registered as %q describes itself as %q", name, got)
		}
	}
}

// TestDPDMatchesCorePredictor pins the tentpole's zero-behavior-change
// contract on a synthetic stream: the dpd strategy and a hand-driven
// core.StreamPredictor must agree on every prediction at every step.
// (The corpus-wide equivalence suite at the repository root does the same
// over every recorded workload stream.)
func TestDPDMatchesCorePredictor(t *testing.T) {
	cfg := core.Config{WindowSize: 64, MaxLag: 24}
	s, err := New("dpd", cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := core.NewStreamPredictor(cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		for k := 1; k <= 5; k++ {
			gv, gok := s.Predict(k)
			wv, wok := direct.Predict(k)
			if gv != wv || gok != wok {
				t.Fatalf("step %d +%d: strategy (%d,%v) vs core (%d,%v)", i, k, gv, gok, wv, wok)
			}
		}
		x := int64(i % 9)
		if rng.Intn(10) == 0 {
			x = rng.Int63n(12)
		}
		s.Observe(x)
		direct.Observe(x)
	}
}

func TestLastValueSemantics(t *testing.T) {
	s := NewLastValue()
	if _, ok := s.Predict(1); ok {
		t.Fatal("untrained lastvalue predicted")
	}
	s.Observe(41)
	s.Observe(42)
	for k := 1; k <= 5; k++ {
		if v, ok := s.Predict(k); !ok || v != 42 {
			t.Fatalf("+%d = (%d, %v), want (42, true)", k, v, ok)
		}
	}
	set, ok := s.PredictSetInto(nil, 3)
	if !ok || !reflect.DeepEqual(set, []int64{42, 42, 42}) {
		t.Fatalf("PredictSetInto = (%v, %v)", set, ok)
	}
	s.Reset()
	if _, ok := s.Predict(1); ok {
		t.Fatal("reset lastvalue predicted")
	}
}

// plusKAccuracy feeds stream into s and returns its +k accuracy the way
// the evaluation harness scores it (abstentions count as misses), over
// the positions from warmup on.
func plusKAccuracy(s Strategy, stream []int64, k, warmup int) float64 {
	hits, total := 0, 0
	for i, x := range stream {
		if i >= warmup && i+k-1 < len(stream) {
			total++
			if v, ok := s.Predict(k); ok && v == stream[i+k-1] {
				hits++
			}
		}
		s.Observe(x)
	}
	return float64(hits) / float64(total)
}

func TestLastValueAccuracyOnAlternatingStream(t *testing.T) {
	// On a strictly alternating stream last-value is always wrong; the DPD
	// is essentially always right. This is the qualitative gap the paper's
	// related-work section describes.
	stream := periodicStream(800, 2)
	if lv := plusKAccuracy(NewLastValue(), stream, 1, 50); lv > 0.01 {
		t.Errorf("lastvalue accuracy on alternating stream = %.3f, want ~0", lv)
	}
	if dpd := plusKAccuracy(NewDPD(core.DefaultConfig()), stream, 1, 50); dpd < 0.99 {
		t.Errorf("dpd accuracy on alternating stream = %.3f, want ~1", dpd)
	}
}

// TestDPDMultiStepBeatsBaselineStrategies pins the paper's multi-step
// claim: on a period-18 pattern whose last repetition breaks the inner
// period-5 cycle, the DPD predicts +5 exactly, while lastvalue and the
// chained markov1 keep missing the irregular tail.
func TestDPDMultiStepBeatsBaselineStrategies(t *testing.T) {
	pattern := []int64{1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 7}
	stream := make([]int64, 300*len(pattern))
	for i := range stream {
		stream[i] = pattern[i%len(pattern)]
	}
	if acc := plusKAccuracy(NewDPD(core.DefaultConfig()), stream, 5, 100); acc < 0.95 {
		t.Errorf("dpd +5 accuracy = %.3f, want >= 0.95", acc)
	}
	for _, s := range []Strategy{NewLastValue(), NewMarkov1()} {
		if acc := plusKAccuracy(s, stream, 5, 100); acc > 0.8 {
			t.Errorf("%s +5 accuracy = %.3f, want <= 0.8", s.Desc().Name, acc)
		}
	}
}

// Property: no strategy panics and Predict never reports ok before any
// observation or after Reset, for arbitrary streams and horizons.
func TestStrategiesNeverPanicAndAbstainWhenEmpty(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Predict(1); ok {
			t.Errorf("%s: fresh strategy must abstain", name)
		}
	}
	f := func(raw []uint8, ks []uint8) bool {
		for _, name := range Names() {
			s, err := New(name, core.Config{WindowSize: 32, MaxLag: 8})
			if err != nil {
				return false
			}
			for _, b := range raw {
				s.Observe(int64(b % 6))
				for _, kb := range ks {
					s.Predict(int(kb%7) - 1) // includes k <= 0
				}
			}
			s.Reset()
			if _, ok := s.Predict(1); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMarkov1Semantics(t *testing.T) {
	s := NewMarkov1()
	if _, ok := s.Predict(1); ok {
		t.Fatal("untrained markov1 predicted")
	}
	// Stream 1,2,3,1,2,3,1: after seeing the cycle twice every transition
	// is known, so every horizon chains correctly.
	for _, x := range []int64{1, 2, 3, 1, 2, 3, 1} {
		s.Observe(x)
	}
	want := []int64{2, 3, 1, 2, 3}
	for k := 1; k <= 5; k++ {
		v, ok := s.Predict(k)
		if !ok || v != want[k-1] {
			t.Fatalf("+%d = (%d, %v), want (%d, true)", k, v, ok, want[k-1])
		}
	}
	// A successorless tail value abstains mid-chain.
	s.Observe(99)
	if _, ok := s.Predict(1); ok {
		t.Fatal("markov1 predicted a successor for a value that never had one")
	}
}

func TestMarkov1TieBreakIsDeterministic(t *testing.T) {
	// 5 is followed once by 7 and once by 6; the earliest-interned
	// successor (7) must win regardless of which count came last.
	s := NewMarkov1()
	for _, x := range []int64{5, 7, 5, 6, 5} {
		s.Observe(x)
	}
	if v, ok := s.Predict(1); !ok || v != 7 {
		t.Fatalf("tie broke to (%d, %v), want earliest-interned 7", v, ok)
	}
	// A strictly greater count still wins.
	for _, x := range []int64{6, 5} {
		s.Observe(x)
	}
	if v, ok := s.Predict(1); !ok || v != 6 {
		t.Fatalf("after extra 5->6: (%d, %v), want 6", v, ok)
	}
}

func TestMarkov1InternBound(t *testing.T) {
	s := NewMarkov1()
	for i := 0; i < Markov1MaxValues+100; i++ {
		s.Observe(int64(i))
	}
	if len(s.values) != Markov1MaxValues {
		t.Fatalf("interned %d values, bound is %d", len(s.values), Markov1MaxValues)
	}
	if _, ok := s.Predict(1); ok {
		t.Fatal("predicted from an unknown (overflowed) value")
	}
	// Returning to a known value predicts again.
	s.Observe(0)
	if _, ok := s.Predict(1); !ok {
		t.Fatal("no prediction after returning to a known value")
	}
}

// TestSnapshotRestoreEquivalence drives every strategy through a noisy
// stream, snapshots it, restores into a fresh instance and requires both
// to behave identically on the rest of the stream — and the restored
// snapshot to be byte-identical (the warm-restart contract).
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			orig, err := New(name, core.Config{WindowSize: 64, MaxLag: 24})
			if err != nil {
				t.Fatal(err)
			}
			stream := make([]int64, 3000)
			for i := range stream {
				stream[i] = int64(i % 7)
				if rng.Intn(9) == 0 {
					stream[i] = rng.Int63n(10)
				}
			}
			for _, x := range stream[:2000] {
				orig.Observe(x)
			}
			payload := orig.Snapshot()
			restored, err := Restore(name, payload)
			if err != nil {
				t.Fatal(err)
			}
			if again := restored.Snapshot(); !bytes.Equal(again, payload) {
				t.Fatal("restore + snapshot is not byte-identical")
			}
			for i, x := range stream[2000:] {
				for k := 1; k <= 5; k++ {
					ov, ook := orig.Predict(k)
					rv, rok := restored.Predict(k)
					if ov != rv || ook != rok {
						t.Fatalf("step %d +%d: original (%d,%v) vs restored (%d,%v)", i, k, ov, ook, rv, rok)
					}
				}
				orig.Observe(x)
				restored.Observe(x)
			}
		})
	}
}

// TestRestoreRejectsCorruptPayloads mutates every byte of a valid payload
// and requires Restore to either reject it or produce a strategy that can
// re-snapshot (never panic); truncations must always be rejected.
func TestRestoreRejectsCorruptPayloads(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, core.Config{WindowSize: 48, MaxLag: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range periodicStream(300, 6) {
				s.Observe(x)
			}
			payload := s.Snapshot()
			for n := 0; n < len(payload); n++ {
				if _, err := Restore(name, payload[:n]); err == nil {
					t.Fatalf("truncation to %d of %d bytes was accepted", n, len(payload))
				}
			}
			mutated := make([]byte, len(payload))
			for i := range payload {
				copy(mutated, payload)
				mutated[i] ^= 0xff
				restored, err := Restore(name, mutated)
				if err != nil {
					continue
				}
				restored.Snapshot() // must not panic
				restored.Observe(1)
				restored.Predict(1)
			}
		})
	}
}

func TestRestoreWrongKindPayload(t *testing.T) {
	s, err := New("markov1", core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range periodicStream(100, 4) {
		s.Observe(x)
	}
	if _, err := Restore("lastvalue", s.Snapshot()); err == nil {
		t.Fatal("lastvalue accepted a markov1 payload")
	} else if !errors.Is(err, ErrBadPayload) {
		t.Fatalf("error %v does not wrap ErrBadPayload", err)
	}
}

func TestDPDStateCodecRoundTrip(t *testing.T) {
	p := core.NewStreamPredictor(core.Config{WindowSize: 48, MaxLag: 16})
	for _, x := range periodicStream(400, 5) {
		p.Observe(x)
	}
	want := p.Snapshot()
	got, err := DecodeDPDState(EncodeDPDState(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dpd state codec round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(name, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range periodicStream(2000, 6) {
			s.Observe(x)
		}
		s.Reset()
		if !bytes.Equal(s.Snapshot(), fresh.Snapshot()) {
			t.Errorf("%s: Reset state differs from a fresh instance", name)
		}
	}
}

func TestDescString(t *testing.T) {
	if got := (Desc{Name: "lastvalue"}).String(); got != "lastvalue" {
		t.Fatalf("Desc.String() = %q", got)
	}
	if got := (Desc{Name: "dpd", Config: "window=512"}).String(); got != "dpd(window=512)" {
		t.Fatalf("Desc.String() = %q", got)
	}
}

func TestDPDIntrospection(t *testing.T) {
	d := NewDPD(core.Config{WindowSize: 64, MaxLag: 24})
	if st := d.PredictorState(); st != "learning" {
		t.Fatalf("fresh dpd state %q", st)
	}
	for _, x := range periodicStream(512, 6) {
		d.Observe(x)
	}
	if st := d.PredictorState(); st != "locked" {
		t.Fatalf("warmed dpd state %q", st)
	}
	if p, ok := d.PredictorPeriod(); !ok || p != 6 {
		t.Fatalf("dpd period = (%d, %v), want (6, true)", p, ok)
	}
	if d.Stream() == nil || d.Stream().State() != core.Locked {
		t.Fatal("Stream() does not expose the locked core predictor")
	}
	// The interface-facing optional contracts hold.
	var s Strategy = d
	if _, ok := s.(StateReporter); !ok {
		t.Fatal("dpd does not implement StateReporter")
	}
	if _, ok := s.(PeriodReporter); !ok {
		t.Fatal("dpd does not implement PeriodReporter")
	}
}

func TestRegisterValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty name": func() { Register("", func(core.Config) Strategy { return nil }) },
		"duplicate":  func() { Register("dpd", func(core.Config) Strategy { return nil }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register with %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func repeat(pattern []int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

func TestRegistryKnowsAllPredictors(t *testing.T) {
	want := []string{"dpd", "lastvalue", "markov1", MetaName}
	names := Names()
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registered strategies = %v, want %v", names, want)
	}
	for _, n := range want {
		s, err := New(n, core.DefaultConfig())
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if s.Desc().Name != n {
			t.Errorf("New(%q).Desc().Name = %q", n, s.Desc().Name)
		}
	}
}

func TestNewUnknownPredictor(t *testing.T) {
	for _, name := range []string{"no-such-predictor", "last-value", "markov2", "cycle"} {
		if _, err := New(name, core.DefaultConfig()); err == nil {
			t.Errorf("New(%q) accepted a name no strategy is registered under", name)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	for _, name := range Names() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate Register(%q) did not panic", name)
				}
			}()
			Register(name, func(core.Config) Strategy { return NewLastValue() })
		}()
	}
	// The failed registrations left the original factories in place.
	if s, err := New("dpd", core.DefaultConfig()); err != nil || s.Desc().Name != "dpd" {
		t.Fatalf("dpd factory replaced by a duplicate Register: %v", err)
	}
}

func TestLastValue(t *testing.T) {
	s := NewLastValue()
	if _, ok := s.Predict(1); ok {
		t.Error("untrained lastvalue must abstain")
	}
	s.Observe(5)
	if v, ok := s.Predict(1); !ok || v != 5 {
		t.Errorf("Predict(1)=%d,%v want 5,true", v, ok)
	}
	// Unlike a single-step predictor, the strategy carries the last value
	// to every horizon.
	if v, ok := s.Predict(2); !ok || v != 5 {
		t.Errorf("Predict(2)=%d,%v want 5,true", v, ok)
	}
	s.Observe(9)
	if v, _ := s.Predict(1); v != 9 {
		t.Errorf("after new observation Predict(1)=%d want 9", v)
	}
	s.Reset()
	if _, ok := s.Predict(1); ok {
		t.Error("reset lastvalue must abstain")
	}
}

func TestMarkovOrder1(t *testing.T) {
	s := NewMarkov1()
	if s.Desc().Name != "markov1" {
		t.Errorf("name=%q", s.Desc().Name)
	}
	if _, ok := s.Predict(1); ok {
		t.Error("untrained markov1 must abstain")
	}
	for _, x := range repeat([]int64{1, 2, 3}, 60) {
		s.Observe(x)
	}
	// After ...,1,2,3 the last value is 3 (60 samples end with 3).
	if v, ok := s.Predict(1); !ok || v != 1 {
		t.Errorf("Predict(1)=%d,%v want 1,true", v, ok)
	}
	if v, ok := s.Predict(2); !ok || v != 2 {
		t.Errorf("Predict(2) by chaining=%d,%v want 2,true", v, ok)
	}
	if v, ok := s.Predict(3); !ok || v != 3 {
		t.Errorf("Predict(3) by chaining=%d,%v want 3,true", v, ok)
	}
	s.Reset()
	if _, ok := s.Predict(1); ok {
		t.Error("reset markov1 must abstain")
	}
}

func TestDPDStreamAccessor(t *testing.T) {
	d := NewDPD(core.DefaultConfig())
	if d.Stream() == nil {
		t.Fatal("Stream() should expose the wrapped StreamPredictor")
	}
	for _, x := range repeat([]int64{4, 5, 6}, 60) {
		d.Observe(x)
	}
	if st := d.Stream().State(); st != core.Locked {
		t.Errorf("state=%v want locked", st)
	}
	// The accessor returns the predictor the strategy drives, not a copy.
	if v, ok := d.Predict(1); !ok || v != 4 {
		t.Errorf("Predict(1)=%d,%v want 4,true", v, ok)
	}
	if v, ok := d.Stream().Predict(1); !ok || v != 4 {
		t.Errorf("Stream().Predict(1)=%d,%v want 4,true", v, ok)
	}
}
