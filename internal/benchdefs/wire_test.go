package benchdefs

// Smoke the wire benchmark environment the same way serve_bench_test.go
// smokes the HTTP bodies: everything benchjson records must run clean
// under `go test`, with a test naming what broke when it does not.

import "testing"

func TestWireBenchEnvBodiesRun(t *testing.T) {
	env, err := NewWireBenchEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	before := env.Registry.Stats().Events
	blocks := 3 * 64 / ServeBenchBatch
	for i := 0; i < blocks; i++ {
		if err := env.ObserveBlockWire(); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.FlushObserves(); err != nil {
		t.Fatal(err)
	}
	got := env.Registry.Stats().Events - before
	if got != int64(blocks*ServeBenchBatch) {
		t.Fatalf("wire observe delivered %d events, want %d", got, blocks*ServeBenchBatch)
	}

	// More predict calls than the pipeline depth, so the steady state
	// (one send, one receive per call) is exercised, not just the fill.
	for i := 0; i < wirePredictDepth+8; i++ {
		if err := env.PredictWire(); err != nil {
			t.Fatal(err)
		}
	}

	// The dpd twin, the default model behind the same frames.
	dpd, err := NewWireBenchEnvFor("")
	if err != nil {
		t.Fatal(err)
	}
	defer dpd.Close()
	// Enough blocks to flush the warm-up out of the window: the 64-event
	// block cycle is the stream the benchmark's steady state locks onto.
	for i := 0; i < 16; i++ {
		if err := dpd.ObserveBlockWire(); err != nil {
			t.Fatal(err)
		}
	}
	if err := dpd.FlushObserves(); err != nil {
		t.Fatal(err)
	}
	sessions := dpd.Registry.Sessions()
	if len(sessions) != 1 || sessions[0].Strategy != "dpd" || sessions[0].SenderState != "locked" {
		t.Fatalf("dpd twin sessions = %+v, want one locked dpd session", sessions)
	}

	// The markov1 HTTP twin the snapshots compare against must run too.
	twin := NewServeBenchEnvFor(WireBenchStrategy)
	if err := twin.ObserveBlockHTTP(0); err != nil {
		t.Fatal(err)
	}
	if err := twin.PredictHTTP(); err != nil {
		t.Fatal(err)
	}
}
