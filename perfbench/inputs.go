package main

import (
	"fmt"
	"time"

	"mpipredict/internal/core"
	"mpipredict/internal/simnet"
	"mpipredict/internal/strategy"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

// inputSpecs are the NAS skeletons every workload's inputs come from: each
// application of the paper at its smallest paper process count and its
// class-A iteration count. bt, cg and lu are periodic; is and sweep3d are
// the paper's aperiodic cases.
var inputSpecs = []workloads.Spec{
	{Name: "bt", Procs: 4},
	{Name: "cg", Procs: 4},
	{Name: "lu", Procs: 4},
	{Name: "is", Procs: 8},
	{Name: "sweep3d", Procs: 6},
}

// periodicApps are the applications whose streams the DPD can lock onto.
var periodicApps = map[string]bool{"bt": true, "cg": true, "lu": true}

// inputStream is one served stream: the messages one rank receives at one
// instrumentation level of one simulated run.
type inputStream struct {
	Key      string // "<app>.<procs>/r<receiver>/<level>"
	App      string
	Periodic bool
	Senders  []int64
	Sizes    []int64
}

// inputs is everything a workload feeds the system under test, generated
// from the seed alone.
type inputs struct {
	Seed    int64
	Traces  []*trace.Trace
	Streams []inputStream
	Events  int
	// SimulateS is the wall time of each spec's simulation, in spec order.
	SimulateS []float64
}

// generateInputs simulates inputSpecs under the default (noisy) network
// with every receiver traced, and splits the traces into one stream per
// (run, receiver, level). The same seed gives the same inputs; the seed
// changes the network noise, so physical-level orders differ by seed.
func generateInputs(seed int64) (*inputs, error) {
	in := &inputs{Seed: seed}
	for _, spec := range inputSpecs {
		start := time.Now()
		tr, err := workloads.Run(workloads.RunConfig{Spec: spec, Net: simnet.DefaultConfig(), Seed: seed, TraceAllReceivers: true})
		if err != nil {
			return nil, fmt.Errorf("simulating %s.%d: %w", spec.Name, spec.Procs, err)
		}
		in.SimulateS = append(in.SimulateS, time.Since(start).Seconds())
		in.Traces = append(in.Traces, tr)
		for _, r := range tr.Receivers() {
			for _, lvl := range []trace.Level{trace.Logical, trace.Physical} {
				s := inputStream{
					Key:      fmt.Sprintf("%s.%d/r%d/%s", spec.Name, spec.Procs, r, lvl),
					App:      spec.Name,
					Periodic: periodicApps[spec.Name],
					Senders:  tr.SenderStream(r, lvl),
					Sizes:    tr.SizeStream(r, lvl),
				}
				if len(s.Senders) == 0 {
					continue
				}
				in.Streams = append(in.Streams, s)
				in.Events += len(s.Senders)
			}
		}
	}
	return in, nil
}

// periodicShare returns the share of events from periodic applications.
func (in *inputs) periodicShare() float64 {
	var p int
	for _, s := range in.Streams {
		if s.Periodic {
			p += len(s.Senders)
		}
	}
	return pct(float64(p), float64(in.Events))
}

// lockedShare replays every sender stream through a fresh DPD and returns
// the share of observes after which it reports the locked state: the
// input property any claim about the DPD's locked fast path must name.
func lockedShare(streams []inputStream) float64 {
	var locked, total int
	for _, s := range streams {
		st, err := strategy.New(strategy.Default, core.Config{})
		if err != nil {
			panic(err) // the default strategy is always registered
		}
		rep := st.(strategy.StateReporter)
		for _, x := range s.Senders {
			st.Observe(x)
			if rep.PredictorState() == "locked" {
				locked++
			}
		}
		total += len(s.Senders)
	}
	return pct(float64(locked), float64(total))
}
