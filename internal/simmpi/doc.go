// Package simmpi is a deterministic, discrete-event simulated MPI runtime.
//
// The paper instruments a real MPICH installation; this repository has no
// MPI available, so the runtime substitutes it. It provides what the
// paper's measurements require and what the proposed scalability
// mechanisms need to be exercised:
//
//   - rank programs written as ordinary Go functions running against a
//     Rank handle with the familiar MPI surface (Send, Recv, Isend,
//     Irecv, Wait, Sendrecv and the usual collectives),
//   - an eager/rendezvous protocol split at a configurable message size,
//   - per-rank virtual clocks advanced by compute phases, library
//     overheads and message transfer times drawn from the simnet model
//     (including jitter and load-imbalance noise), and
//   - dual-level receive tracing: a logical record when an application
//     receive completes (program order) and a physical record when the
//     message arrives at the receiver (arrival-time order), exactly the
//     two instrumentation points of Section 3.1 of the paper.
//
// # Execution model
//
// Every rank runs as a coroutine (iter.Pull) driven by a round-robin
// scheduler: exactly one rank executes at any moment and ranks hand
// control back to the engine only when they block (waiting for a message
// that has not been produced yet) or finish. A blocked rank is resumed
// only once its mailbox has grown. Sends never block — eager sends are
// buffered immediately and rendezvous sends charge their handshake
// latency to the sender's clock without waiting for the receiver — so the
// schedule is independent of goroutine timing and runs are fully
// reproducible for a fixed seed. When a run deadlocks or a program
// panics, the engine stops every unfinished coroutine before returning.
//
// Each rank's mailbox is one FIFO per sender, holding envelopes by value
// in a reused buffer, so a send allocates nothing. A receive from a
// specific source scans only that sender's queue, in send order. An
// AnySource receive takes the earliest arrival across all queues; equal
// arrival times go to the message that reached the mailbox first.
//
// Message arrival times are computed when the send is issued:
//
//	arrival = senderClock + sendOverhead [+ handshake] + transfer(size, jitter)
//
// A receive completes at max(receiverClock, arrival) + recvOverhead. The
// logical trace is recorded at receive completion in program order; the
// physical trace is recorded with the arrival timestamp and sorted by
// arrival time when the run finishes. MPI pairwise ordering is honoured:
// matching between a (sender, tag) pair follows send order even when
// jitter reorders arrivals, which is precisely how the logical stream
// stays deterministic while the physical stream picks up randomness.
package simmpi
