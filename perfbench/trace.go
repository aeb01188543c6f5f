package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the index of the span
// that caused it (-1 for a root); Req ties the spans of one request.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Req        int64
}

// tracer keeps spans in memory until the run ends. Spans are recorded
// from the benchmark's own code around calls into each layer, and from a
// strategy wrapper the benchmark registers (see ledger.go), which is the
// only way to see below a layer whose internals the benchmark cannot wrap.
//
// The current parent and request id are process-wide: the ledger drives
// one request at a time, so a span opened by a callee on another
// goroutine (a server handler, a wire connection) still nests under the
// request that caused it.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu     sync.Mutex
	spans  []span
	parent int
	req    int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), parent: -1}
}

// now returns nanoseconds since the epoch on the monotonic clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the current parent and makes it the parent of
// spans opened until end; a negative req inherits the current request. It
// returns -1 when tracing is off.
func (t *tracer) begin(name string, req int64) int {
	if !t.on.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	if req < 0 {
		req = t.req
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: t.parent, Req: req})
	t.parent, t.req = id, req
	t.mu.Unlock()
	return id
}

// end closes span id and restores its parent as the current one.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	stop := t.now()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = stop
	t.parent = s.Parent
	if s.Parent >= 0 {
		t.req = t.spans[s.Parent].Req
	}
	t.mu.Unlock()
}

// leaf records a completed span that opens no children, under the
// current parent and request.
func (t *tracer) leaf(name string, start int64) {
	stop := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: stop, Parent: t.parent, Req: t.req})
	t.mu.Unlock()
}

// count returns the number of spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTSV writes every span, one per line: id, parent, request, name,
// start and end in nanoseconds.
func writeTSV(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children (overlapping children count
// once, and the parts of children outside the parent do not count).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered measures the union of the kids' intervals clipped to p.
func covered(p span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanTotal aggregates the spans of one name: count, summed duration and
// summed self time, in nanoseconds.
type spanTotal struct {
	N         int
	Dur, Self int64
}
