package simmpi

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"

	"mpipredict/internal/trace"
)

// AnySource matches a message from any sender, like MPI_ANY_SOURCE.
// Matching picks the queued message with the earliest arrival time, which
// approximates MPICH behaviour; note that the simulated workloads avoid
// wildcard receives so that their logical streams stay deterministic, as
// the paper's benchmarks do.
const AnySource = -1

// AnyTag matches a message with any tag, like MPI_ANY_TAG.
const AnyTag = -1

// Message describes a received message.
type Message struct {
	// Sender is the rank that sent the message.
	Sender int
	// Tag is the tag the message was sent with.
	Tag int
	// Size is the payload size in bytes.
	Size int64
	// Arrival is the simulated time (microseconds) at which the message
	// arrived at the receiver's low-level layer.
	Arrival float64
}

// envelope is a message queued at the receiver. Envelopes are stored by
// value in per-sender queues, so a send allocates nothing.
type envelope struct {
	tag     int
	size    int64
	arrival float64
	// seq is the receiver's mailbox sequence number at enqueue time: the
	// order in which messages reached the mailbox across all senders.
	seq  int
	kind trace.Kind
	op   string
}

// senderQueue holds the messages one sender has queued at a receiver, in
// send order. buf[head:] are live; the backing array is reused once the
// queue drains.
type senderQueue struct {
	buf  []envelope
	head int
}

func (q *senderQueue) push(env envelope) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, env)
}

// take removes and returns the live envelope at index i (head <= i <
// len(buf)). Envelopes ahead of it shift back one slot, so the queue keeps
// send order.
func (q *senderQueue) take(i int) envelope {
	env := q.buf[i]
	copy(q.buf[q.head+1:i+1], q.buf[q.head:i])
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return env
}

// errStopped unwinds a blocked rank program whose coroutine the engine
// stops after a deadlock or a failure elsewhere in the run. It is not a
// program error.
var errStopped = errors.New("simmpi: rank stopped")

// Rank is the per-process handle a Program uses to communicate. It must
// only be used from the program it was handed to.
type Rank struct {
	eng *Engine
	id  int

	clock float64
	rng   *rand.Rand

	state rankState
	// next resumes the rank's coroutine until it blocks or finishes;
	// stop unwinds a suspended coroutine. yield suspends the coroutine
	// from inside the program.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// queues holds one FIFO per sender. mailboxVersion counts every
	// message that ever reached the mailbox and doubles as the next
	// envelope's seq.
	queues           []senderQueue
	mailboxVersion   int
	blockedAtVersion int
	// blockedOp, blockedSrc and blockedTag describe the receive the rank
	// is blocked on; they are formatted only for a deadlock report.
	blockedOp  string
	blockedSrc int
	blockedTag int

	// collectiveOp is non-empty while the rank executes a collective; the
	// messages it generates are then recorded with Kind Collective and the
	// operation name.
	collectiveOp string

	sentMessages     int64
	receivedMessages int64
}

func newRank(e *Engine, id int) *Rank {
	return &Rank{
		eng:    e,
		id:     id,
		rng:    e.rankRNG(id),
		state:  stateReady,
		queues: make([]senderQueue, e.cfg.Procs),
	}
}

// ID returns the rank number (0-based).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the run (the communicator size).
func (r *Rank) Size() int { return len(r.eng.ranks) }

// Clock returns the rank's current virtual time in microseconds.
func (r *Rank) Clock() float64 { return r.clock }

// SentMessages returns how many messages this rank has sent so far.
func (r *Rank) SentMessages() int64 { return r.sentMessages }

// ReceivedMessages returns how many messages this rank has received.
func (r *Rank) ReceivedMessages() int64 { return r.receivedMessages }

// start wraps the program in a coroutine. The program does not run until
// the engine first resumes the rank.
func (r *Rank) start(program Program) {
	r.next, r.stop = iter.Pull(func(yield func(struct{}) bool) {
		r.yield = yield
		defer func() {
			if p := recover(); p != nil && p != errStopped {
				if r.eng.programErr == nil {
					r.eng.programErr = fmt.Errorf("rank %d panicked: %v", r.id, p)
				}
			}
			r.state = stateDone
		}()
		program(r)
	})
}

// resumeOnce runs the rank's coroutine until it blocks or finishes.
// Called only by the engine scheduler.
func (r *Rank) resumeOnce() {
	r.state = stateReady
	r.next()
}

// block suspends the rank until the scheduler resumes it. Called only
// from the rank's program. If the engine stops the rank instead, block
// unwinds the program with errStopped and never returns into it.
func (r *Rank) block(op string, src, tag int) {
	r.blockedOp, r.blockedSrc, r.blockedTag = op, src, tag
	r.blockedAtVersion = r.mailboxVersion
	r.state = stateBlocked
	if !r.yield(struct{}{}) {
		panic(errStopped)
	}
}

// blockedOn describes the receive a blocked rank waits for.
func (r *Rank) blockedOn() string {
	return fmt.Sprintf("%s(src=%d, tag=%d)", r.blockedOp, r.blockedSrc, r.blockedTag)
}

// Compute advances the rank's clock by a compute phase of the given
// nominal duration (microseconds), subject to the configured load
// imbalance noise. Workload skeletons call it between communication
// phases; it is the main source of physical-level randomness besides
// network jitter.
func (r *Rank) Compute(us float64) {
	r.clock += r.eng.model.ComputeTime(r.rng, us)
}

// Send performs a blocking standard-mode send of size bytes to dst with
// the given tag. Eager messages return after the library overhead;
// rendezvous messages additionally charge the handshake round trip to the
// sender's clock, reproducing the latency gap Section 2.3 of the paper
// wants to eliminate.
func (r *Rank) Send(dst, tag int, size int64) {
	r.send(dst, tag, size, trace.PointToPoint, "send")
}

func (r *Rank) send(dst, tag int, size int64, kind trace.Kind, op string) {
	if dst < 0 || dst >= len(r.eng.ranks) {
		panic(fmt.Sprintf("simmpi: rank %d sends to invalid rank %d (size %d)", r.id, dst, len(r.eng.ranks)))
	}
	if size < 0 {
		size = 0
	}
	m := r.eng.model
	r.clock += m.SendOverhead()
	if m.UsesRendezvous(size) {
		r.clock += m.RendezvousHandshake(r.rng)
	}
	arrival := r.clock + m.TransferTime(r.rng, size)
	to := r.eng.ranks[dst]
	to.queues[r.id].push(envelope{tag: tag, size: size, arrival: arrival, seq: to.mailboxVersion, kind: kind, op: op})
	to.mailboxVersion++
	r.sentMessages++
	r.eng.recordPhysical(trace.Record{
		Time:     arrival,
		Receiver: dst,
		Sender:   r.id,
		Size:     size,
		Tag:      tag,
		Kind:     kind,
		Op:       op,
	})
}

// Recv performs a blocking receive of a message from src with the given
// tag. src may be AnySource and tag may be AnyTag. The returned Message
// reports the actual sender, tag, size and arrival time.
func (r *Rank) Recv(src, tag int) Message {
	return r.recv(src, tag, "recv")
}

func (r *Rank) recv(src, tag int, op string) Message {
	for {
		from, idx := r.match(src, tag)
		if idx >= 0 {
			env := r.queues[from].take(idx)
			if env.arrival > r.clock {
				r.clock = env.arrival
			}
			r.clock += r.eng.model.RecvOverhead()
			r.receivedMessages++
			r.eng.recordLogical(trace.Record{
				Time:     r.clock,
				Receiver: r.id,
				Sender:   from,
				Size:     env.size,
				Tag:      env.tag,
				Kind:     env.kind,
				Op:       env.op,
			})
			return Message{Sender: from, Tag: env.tag, Size: env.size, Arrival: env.arrival}
		}
		r.block(op, src, tag)
	}
}

// match locates the message to deliver for a receive with the given
// source and tag: the sender's queue and the index within its buffer, or
// idx -1 when none is queued. For a specific source, messages from that
// source are matched in send order (MPI pairwise non-overtaking). For
// AnySource, the earliest-arriving queued match is chosen; equal arrival
// times go to the message that reached the mailbox first.
func (r *Rank) match(src, tag int) (from, idx int) {
	if src != AnySource {
		if src < 0 || src >= len(r.queues) {
			return src, -1
		}
		q := &r.queues[src]
		for i := q.head; i < len(q.buf); i++ {
			if tag == AnyTag || q.buf[i].tag == tag {
				return src, i
			}
		}
		return src, -1
	}
	from, idx = -1, -1
	var best *envelope
	for s := range r.queues {
		q := &r.queues[s]
		for i := q.head; i < len(q.buf); i++ {
			env := &q.buf[i]
			if tag != AnyTag && env.tag != tag {
				continue
			}
			if best == nil || env.arrival < best.arrival || (env.arrival == best.arrival && env.seq < best.seq) {
				best, from, idx = env, s, i
			}
		}
	}
	return from, idx
}

// Sendrecv sends one message and receives another, like MPI_Sendrecv.
// Because sends never block in this runtime, the combined operation is
// deadlock-free for symmetric exchange patterns.
func (r *Rank) Sendrecv(dst, sendTag int, sendSize int64, src, recvTag int) Message {
	r.Send(dst, sendTag, sendSize)
	return r.Recv(src, recvTag)
}

// Request represents an outstanding non-blocking operation.
type Request struct {
	rank   *Rank
	isSend bool
	src    int
	tag    int
	op     string
	done   bool
	msg    Message
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.done }

// Isend starts a non-blocking send. In this runtime the message is
// buffered immediately, so the returned request is already complete; Wait
// on it is a no-op. The send cost is charged to the sender's clock at the
// Isend call.
func (r *Rank) Isend(dst, tag int, size int64) *Request {
	r.send(dst, tag, size, trace.PointToPoint, "isend")
	return &Request{rank: r, isSend: true, done: true}
}

// Irecv posts a non-blocking receive. Matching happens when the request
// is waited on; the logical trace therefore records receives in Wait
// order, which is the order the application consumes them — the same
// notion of "logical communication" the paper uses.
func (r *Rank) Irecv(src, tag int) *Request {
	return &Request{rank: r, isSend: false, src: src, tag: tag, op: "irecv"}
}

// Wait blocks until the request completes and returns the received
// message (zero Message for send requests).
func (r *Rank) Wait(q *Request) Message {
	if q == nil {
		panic("simmpi: Wait on nil request")
	}
	if q.rank != r {
		panic("simmpi: Wait on a request owned by another rank")
	}
	if q.done {
		return q.msg
	}
	q.msg = r.recv(q.src, q.tag, q.op)
	q.done = true
	return q.msg
}

// Waitall waits for every request, in order, and returns the received
// messages.
func (r *Rank) Waitall(reqs []*Request) []Message {
	out := make([]Message, len(reqs))
	for i, q := range reqs {
		out[i] = r.Wait(q)
	}
	return out
}
