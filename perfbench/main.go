// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four seeded workloads against the system built from the tree — the
// mpipredictd, mpigateway and mpipredict binaries where a path has one,
// the public functions of the internal packages otherwise — checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 the run is the layer ledger (ledger.go) and the metrics
// are the per-layer ones. perfbench/run.sh builds everything and runs
// this command; see perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is reserved for confirming claims: tune on other seeds, then
// show a claimed change also holds here.
const heldOutSeed = 20261017

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Bin      string // directory holding the built system-under-test binaries
	Work     string // scratch directory for stores and span files
	Procs    int    // load connections, scan workers and -parallel: the host's CPUs
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run measured and checked.
type report struct {
	Attempted, Failed int64
	// SetupS holds each set-up's seconds; the result reports the median.
	SetupS []float64
	// Throughput is events completed per second of the timed phase.
	Throughput float64
	// LatencyMs are the per-operation latency samples, in time order.
	LatencyMs []float64
	PeakRSSMB float64
	// Named are the workload's own metrics, printed by name and unit.
	Named []named
	// Checks are the output checks; any failure fails the run.
	Checks []check
	// Invalid, when set, says why the run measured nothing valid.
	Invalid string
	// Notes are printed as they are.
	Notes []string
}

type named struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

type check struct {
	Name   string
	OK     bool
	Detail string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.Named = append(r.Named, named{name, value, unit, note})
}

func (r *report) check(name string, ok bool, format string, args ...interface{}) {
	r.Checks = append(r.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) passed() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Invalid == ""
}

// workloadFuncs maps each workload name to its timed run.
var workloadFuncs = map[string]func(context.Context, config, io.Writer) (*report, error){
	"ingest-wire":         runIngest,
	"interactive-gateway": runInteractive,
	"reproduce-paper":     runReproduce,
	"store-analytics":     runStore,
}

func workloadNames() []string {
	var names []string
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.Workload, "workload", "", fmt.Sprintf("workload to run: %s, or all", strings.Join(workloadNames(), ", ")))
	fs.Int64Var(&cfg.Seed, "seed", 1, fmt.Sprintf("input seed (1 is the default, %d is held out for confirming claims)", heldOutSeed))
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 runs the traced layer ledger instead of the timed run")
	fs.StringVar(&cfg.Bin, "bin", ".bench_build/bin", "directory holding mpipredict, mpipredictd and mpigateway")
	fs.StringVar(&cfg.Work, "work", ".bench_build/perfbench", "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.Seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	cfg.Trace = *traceFlag == 1
	cfg.Procs = runtime.NumCPU()
	names := []string{cfg.Workload}
	if cfg.Workload == "all" {
		names = workloadNames()
	} else if workloadFuncs[cfg.Workload] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want %s or all)\n", cfg.Workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	code := 0
	for _, name := range names {
		c := cfg
		c.Workload = name
		if err := runOne(ctx, c, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// runOne runs one workload (timed or traced), prints its metrics and the
// result line, and fails when any check failed or the run was invalid.
func runOne(ctx context.Context, cfg config, w io.Writer) error {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g trace=%t procs=%d\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, cfg.Procs)
	var rep *report
	steal0, total0, statErr := cpuStat()
	var err error
	if cfg.Trace {
		rep, err = runLedger(ctx, cfg, w)
	} else {
		rep, err = workloadFuncs[cfg.Workload](ctx, cfg, w)
	}
	if err != nil {
		return err
	}
	// Stolen time slows every wall-clock metric of a run by about as much;
	// print it so a reader can tell a slow system from a busy host.
	if steal1, total1, err := cpuStat(); err == nil && statErr == nil && total1 > total0 {
		fmt.Fprintf(w, "host_steal_pct %.2f %% (CPU time the hypervisor gave to other guests during the run)\n", pct(float64(steal1-steal0), float64(total1-total0)))
	}
	res := result{Correct: rep.passed(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if !cfg.Trace {
		lat := summarize(rep.LatencyMs)
		res.Metrics["setup_s"] = metric{median(rep.SetupS), "s"}
		res.Metrics["throughput_events_per_s"] = metric{rep.Throughput, "events/s"}
		res.Metrics["latency_p50_ms"] = metric{lat.P50, "ms"}
		res.Metrics["peak_rss_mb"] = metric{rep.PeakRSSMB, "MB"}
		fmt.Fprintf(w, "setup_s %.4f s (median of %d set-ups)\n", median(rep.SetupS), len(rep.SetupS))
		// The tail is printed, not gated: on a shared 2-vCPU host its
		// run-to-run spread is wider than any bound BENCHMARK.json allows.
		fmt.Fprintf(w, "latency: p50 %.4f ms, tail p%g %.4f ms with %d of %d samples beyond\n", lat.P50, lat.TailP, lat.Tail, lat.Beyond, lat.N)
		fmt.Fprintf(w, "failed_pct %.4f %% (%d of %d operations)\n", pct(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	} else {
		for _, m := range rep.Named {
			res.Metrics[m.Name] = metric{m.Value, m.Unit}
		}
	}
	for _, m := range rep.Named {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "%s %.6g %s%s\n", m.Name, m.Value, m.Unit, note)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, n)
	}
	for _, c := range rep.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, c.Name, c.Detail)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if rep.Invalid != "" {
		return fmt.Errorf("invalid run, not scored: %s", rep.Invalid)
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// maxRSSSelfMB returns this process's peak resident set in MB.
func maxRSSSelfMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
