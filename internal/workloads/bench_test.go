package workloads

import (
	"testing"

	"mpipredict/internal/simnet"
)

// BenchmarkSimulateLU32 simulates the paper grid's largest run, lu.32 at
// full scale with the default receiver and both trace levels. events/s
// counts the recorded trace events.
func BenchmarkSimulateLU32(b *testing.B) {
	rc := RunConfig{Spec: Spec{Name: "lu", Procs: 32}, Net: simnet.DefaultConfig(), Seed: 1}
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		tr, err := Run(rc)
		if err != nil {
			b.Fatal(err)
		}
		events += tr.Len()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
