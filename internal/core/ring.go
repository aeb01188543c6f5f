package core

import "slices"

// ring is a fixed-capacity circular buffer of int64 samples. It backs the
// DPD window: the paper stresses that the detector must be implementable
// with circular lists so that the runtime overhead stays small, so the
// buffer never reallocates after construction and all operations are O(1).
//
// The observe path never indexes the ring sample by sample. Segments
// exposes the window as at most two contiguous runs of the backing slice,
// split at the wrap point, so the detector's O(MaxLag) compare loops are
// plain slice loops with no per-load modulo. The ring is not mirrored
// (each sample written twice into a 2×cap buffer so the window is always
// one slice): that is no faster than walking two segments, and it doubles
// the per-stream window memory, which a daemon holding thousands of
// streams pays in resident set size.
type ring struct {
	buf   []int64
	head  int // index of the oldest element
	count int
}

func newRing(capacity int) *ring {
	if capacity <= 0 {
		capacity = 1
	}
	return &ring{buf: make([]int64, capacity)}
}

// Cap returns the fixed capacity of the ring.
func (r *ring) Cap() int { return len(r.buf) }

// Len returns the number of stored samples.
func (r *ring) Len() int { return r.count }

// Full reports whether the ring holds Cap() samples.
func (r *ring) Full() bool { return r.count == len(r.buf) }

// Push appends x, evicting the oldest sample when full. It returns the
// evicted sample and whether an eviction happened.
func (r *ring) Push(x int64) (evicted int64, wasFull bool) {
	if r.count == len(r.buf) {
		evicted = r.buf[r.head]
		r.buf[r.head] = x
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
		return evicted, true
	}
	r.buf[(r.head+r.count)%len(r.buf)] = x
	r.count++
	return 0, false
}

// Segments returns the window contents, oldest first, as two contiguous
// runs of the backing buffer: the window is old followed by recent.
// recent is empty unless the window wraps the end of the buffer. Both
// alias the ring and are valid only until the next Push or Reset.
func (r *ring) Segments() (old, recent []int64) {
	end := r.head + r.count
	if end <= len(r.buf) {
		return r.buf[r.head:end], nil
	}
	return r.buf[r.head:], r.buf[:end-len(r.buf)]
}

// Linearize rotates the backing buffer in place so the window starts at
// index 0, and returns it as one slice, oldest first. The rotation is three
// reversals and allocates nothing. The slice aliases the ring and is valid
// only until the next Push or Reset.
func (r *ring) Linearize() []int64 {
	if r.head != 0 {
		slices.Reverse(r.buf[:r.head])
		slices.Reverse(r.buf[r.head:])
		slices.Reverse(r.buf)
		r.head = 0
	}
	return r.buf[:r.count]
}

// At returns the i-th stored sample, where 0 is the oldest and Len()-1 the
// most recent. It panics on out-of-range access, as a slice would.
func (r *ring) At(i int) int64 {
	if i < 0 || i >= r.count {
		panic("core: ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Last returns the most recently pushed sample; ok is false when empty.
func (r *ring) Last() (int64, bool) {
	if r.count == 0 {
		return 0, false
	}
	return r.At(r.count - 1), true
}

// Snapshot copies the window contents, oldest first.
func (r *ring) Snapshot() []int64 {
	old, recent := r.Segments()
	return append(append(make([]int64, 0, r.count), old...), recent...)
}

// Reset discards all samples but keeps the allocated buffer.
func (r *ring) Reset() {
	r.head = 0
	r.count = 0
}
