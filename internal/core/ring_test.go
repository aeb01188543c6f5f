package core

import (
	"testing"
	"testing/quick"
)

func TestRingBasics(t *testing.T) {
	r := newRing(3)
	if r.Cap() != 3 || r.Len() != 0 || r.Full() {
		t.Fatalf("fresh ring wrong: cap=%d len=%d full=%v", r.Cap(), r.Len(), r.Full())
	}
	if _, ok := r.Last(); ok {
		t.Fatal("Last on empty ring should not be ok")
	}
	r.Push(1)
	r.Push(2)
	if r.Full() {
		t.Fatal("ring should not be full with 2 of 3 elements")
	}
	r.Push(3)
	if !r.Full() {
		t.Fatal("ring should be full with 3 of 3 elements")
	}
	if got := r.Snapshot(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("snapshot=%v want [1 2 3]", got)
	}
	ev, wasFull := r.Push(4)
	if !wasFull || ev != 1 {
		t.Fatalf("push on full ring: evicted=%d wasFull=%v want 1,true", ev, wasFull)
	}
	if got := r.Snapshot(); got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("snapshot after eviction=%v want [2 3 4]", got)
	}
	last, ok := r.Last()
	if !ok || last != 4 {
		t.Fatalf("last=%d,%v want 4,true", last, ok)
	}
	if r.At(0) != 2 || r.At(2) != 4 {
		t.Fatalf("At order wrong: %d %d", r.At(0), r.At(2))
	}
}

func TestRingReset(t *testing.T) {
	r := newRing(4)
	for i := int64(0); i < 10; i++ {
		r.Push(i)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("len after reset = %d want 0", r.Len())
	}
	r.Push(42)
	if v, _ := r.Last(); v != 42 {
		t.Fatalf("after reset+push last=%d want 42", v)
	}
}

func TestRingZeroCapacityClamped(t *testing.T) {
	r := newRing(0)
	if r.Cap() != 1 {
		t.Fatalf("zero capacity should clamp to 1, got %d", r.Cap())
	}
	r.Push(7)
	ev, wasFull := r.Push(8)
	if !wasFull || ev != 7 {
		t.Fatalf("capacity-1 ring should evict 7, got %d,%v", ev, wasFull)
	}
}

func TestRingAtPanicsOutOfRange(t *testing.T) {
	r := newRing(2)
	r.Push(1)
	for _, idx := range []int{-1, 1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) should panic", idx)
				}
			}()
			r.At(idx)
		}()
	}
}

// Property: a ring of capacity c fed any sequence reports the last
// min(len, c) values of that sequence, in order.
func TestRingMatchesSliceSuffix(t *testing.T) {
	f := func(vals []int64, capRaw uint8) bool {
		c := int(capRaw%16) + 1
		r := newRing(c)
		for _, v := range vals {
			r.Push(v)
		}
		want := vals
		if len(want) > c {
			want = want[len(want)-c:]
		}
		got := r.Snapshot()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRingSegmentsMatchWindow checks the in-place window view the
// detector's compare loops and the lock path read: at every head position
// the two segments, concatenated, are the detector's Window(), and the
// second segment is empty unless the window wraps the buffer's end.
func TestRingSegmentsMatchWindow(t *testing.T) {
	d := NewDetector(Config{WindowSize: 8, MaxLag: 4})
	for i := int64(0); i < 30; i++ { // fills, then wraps several times
		d.Observe(i)
		old, recent := d.win.Segments()
		if len(old) == 0 {
			t.Fatalf("after %d samples: empty old segment", i+1)
		}
		got := append(append([]int64(nil), old...), recent...)
		want := d.Window()
		if len(got) != len(want) {
			t.Fatalf("after %d samples: segments hold %d samples, Window() %d", i+1, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("after %d samples: segments %v, Window() %v", i+1, got, want)
			}
		}
		wraps := d.win.head+d.win.Len() > d.win.Cap()
		if wraps != (len(recent) > 0) {
			t.Fatalf("after %d samples: head %d, recent segment %v", i+1, d.win.head, recent)
		}
	}
}
