package simmpi

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
)

func TestFailedRunsLeakNoRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e, err := NewEngine(testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run(func(r *Rank) {
			// Every rank waits for its right neighbour; nobody sends.
			r.Recv((r.ID()+1)%4, 7)
		})
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("run %d: want a deadlock error, got %v", i, err)
		}
		for id := 0; id < 4; id++ {
			want := fmt.Sprintf("rank %d blocked on recv(src=%d, tag=7)", id, (id+1)%4)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("run %d: deadlock error %q lacks %q", i, err, want)
			}
		}
		if e.programErr != nil {
			t.Errorf("run %d: unwinding the blocked ranks was recorded as a program error: %v", i, e.programErr)
		}
	}
	// Stopping a coroutine returns only once it has exited, so the count
	// is exact as soon as Run returns.
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("after 10 deadlocked runs: %d goroutines, %d before", n, base)
	}

	_, err := Run(testConfig(4), func(r *Rank) {
		if r.ID() == 0 {
			panic("boom")
		}
		r.Recv(0, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 panicked: boom") {
		t.Fatalf("want the panic reported, got %v", err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("after a panicking run: %d goroutines, %d before", n, base)
	}
}

func TestStoppedRankNeverResumesItsProgram(t *testing.T) {
	resumed := false
	_, err := Run(testConfig(2), func(r *Rank) {
		if r.ID() == 0 {
			return
		}
		defer func() {
			// A program that swallows the unwind and receives again must
			// still not run past the receive.
			recover()
			r.Recv(0, 0)
			resumed = true
		}()
		r.Recv(0, 0)
		resumed = true
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 blocked on recv(src=0, tag=0)") {
		t.Fatalf("want a deadlock on rank 1, got %v", err)
	}
	if resumed {
		t.Error("a stopped rank returned from a blocking receive")
	}
}

// refMsg is a queued message in the reference mailbox.
type refMsg struct {
	sender  int
	tag     int
	size    int64
	arrival float64
}

// refMatch is the flat-list matching rule the per-sender queues must
// reproduce: one mailbox in arrival-to-mailbox order; a specific source
// takes its first queued match, AnySource the earliest arrival with ties
// going to the message queued first.
func refMatch(mailbox []refMsg, src, tag int) int {
	best := -1
	for i, m := range mailbox {
		if src != AnySource && m.sender != src {
			continue
		}
		if tag != AnyTag && m.tag != tag {
			continue
		}
		if src != AnySource {
			return i
		}
		if best == -1 || m.arrival < mailbox[best].arrival {
			best = i
		}
	}
	return best
}

func TestMatchingEquivalence(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		procs := 2 + rng.Intn(4)
		cfg := testConfig(procs)
		cfg.Seed = int64(trial)
		cfg.TraceReceivers = []int{0}
		noisy := trial%2 == 1
		if noisy {
			// Heavy jitter reorders arrivals across and within senders.
			cfg.Net = simnet.DefaultConfig()
			cfg.Net.JitterFrac = 0.9
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recv := e.ranks[0]
		var mailbox []refMsg
		nextSize := int64(0)
		for step := 0; step < 200; step++ {
			if len(mailbox) == 0 || rng.Intn(3) > 0 {
				s := 1 + rng.Intn(procs-1)
				tag := rng.Intn(3)
				size := int64(8)
				if noisy {
					// Unique sizes identify each message.
					nextSize++
					size = nextSize
				} else if rng.Intn(2) == 0 {
					// A few shared sizes on a noiseless net give equal
					// arrival times across senders.
					size = 64
				}
				if noisy && rng.Intn(2) == 0 {
					e.ranks[s].Compute(float64(rng.Intn(20)))
				}
				e.ranks[s].send(0, tag, size, trace.PointToPoint, "send")
				phys := e.physical[0]
				mailbox = append(mailbox, refMsg{sender: s, tag: tag, size: size, arrival: phys[len(phys)-1].Time})
				continue
			}
			src, tag := AnySource, AnyTag
			if rng.Intn(2) == 0 {
				src = 1 + rng.Intn(procs-1)
			}
			if rng.Intn(2) == 0 {
				tag = rng.Intn(3)
			}
			want := refMatch(mailbox, src, tag)
			if want < 0 {
				continue
			}
			got := recv.recv(src, tag, "recv")
			w := mailbox[want]
			mailbox = append(mailbox[:want], mailbox[want+1:]...)
			if got.Sender != w.sender || got.Tag != w.tag || got.Size != w.size || got.Arrival != w.arrival {
				t.Fatalf("trial %d step %d recv(src=%d, tag=%d): got %+v, reference %+v", trial, step, src, tag, got, w)
			}
		}
	}
}

func TestSendAllocatesNothing(t *testing.T) {
	cfg := testConfig(2)
	cfg.DisableLogical = true
	cfg.DisablePhysical = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	from, to := e.ranks[1], e.ranks[0]
	// Warm the queue so the measurement sees the steady state.
	from.send(0, 0, 8, trace.PointToPoint, "send")
	to.recv(1, 0, "recv")
	allocs := testing.AllocsPerRun(1000, func() {
		from.send(0, 0, 8, trace.PointToPoint, "send")
		to.recv(1, 0, "recv")
	})
	if allocs != 0 {
		t.Errorf("send+recv allocates %.1f times per message", allocs)
	}
}
