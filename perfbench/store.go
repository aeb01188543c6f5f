package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"mpipredict/internal/trace"
	"mpipredict/internal/tracestore"
)

// The store-analytics workload: write the seed's traces to one .mpts
// store, then run the analytics query mix over it at cfg.Procs workers.
// The system under test is the public tracestore API, called from this
// process.

// writeStore writes the traces back to back into one store at path
// (each trace's clock starts where the previous one ended, as if the runs
// followed one another on one machine) and returns the events and bytes
// written.
func writeStore(path string, traces []*trace.Trace) (events int64, size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	procs := 0
	for _, tr := range traces {
		if tr.Procs > procs {
			procs = tr.Procs
		}
	}
	w, err := tracestore.NewWriter(bw, "nas-mix", procs)
	if err != nil {
		return 0, 0, err
	}
	var offset float64
	for _, tr := range traces {
		var end float64
		for _, r := range tr.Records {
			if r.Time > end {
				end = r.Time
			}
			r.Time += offset
			if err := w.WriteRecord(r); err != nil {
				return events, 0, err
			}
			events++
		}
		offset += end
	}
	if err := w.Close(); err != nil {
		return events, 0, err
	}
	if err := bw.Flush(); err != nil {
		return events, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return events, 0, err
	}
	return events, st.Size(), f.Close()
}

// mixResult holds every answer of one query mix, for comparing runs.
type mixResult struct {
	TopK    [2][]tracestore.SenderCount
	Windows [2][]tracestore.WindowStat
	Phases  [2][]tracestore.PhaseBoundary
	Pruned  [2]int64 // events inside the time range, per level
}

// queryNames are the four query kinds of the mix, each run on both levels
// (the pruned query covers both in one scan).
var queryNames = []string{"topk", "windows", "phases", "pruned"}

// mixStats is what one query mix cost.
type mixStats struct {
	Ms      map[string]float64 // wall milliseconds by query kind
	QueryMs []float64          // wall milliseconds of each query
	Scan    tracestore.ScanStats
	Events  int64 // events delivered to the queries
}

func (m *mixStats) add(kind string, d time.Duration, s tracestore.ScanStats) {
	m.Ms[kind] += float64(d) / 1e6
	m.QueryMs = append(m.QueryMs, float64(d)/1e6)
	m.Scan.Partitions += s.Partitions
	m.Scan.Pruned += s.Pruned
	m.Scan.BlocksRead += s.BlocksRead
	m.Scan.BytesRead += s.BytesRead
	m.Events += s.Events
}

// queryMix runs top-senders (k=10), 16 time windows and phase boundaries
// on each level, then one scan pruned to the middle tenth of the store's
// time span that counts events per level.
func queryMix(ctx context.Context, r *tracestore.Reader, workers int, tr *tracer) (mixResult, mixStats, error) {
	var res mixResult
	st := mixStats{Ms: make(map[string]float64)}
	levels := [2]trace.Level{trace.Logical, trace.Physical}
	timed := func(kind string, fn func() (tracestore.ScanStats, error)) error {
		id := tr.begin("tracestore.scan_"+kind, 0)
		start := time.Now()
		s, err := fn()
		st.add(kind, time.Since(start), s)
		tr.end(id)
		return err
	}
	for i, lvl := range levels {
		if err := timed("topk", func() (s tracestore.ScanStats, err error) {
			res.TopK[i], _, s, err = r.TopKSenders(ctx, lvl, 10, workers)
			return s, err
		}); err != nil {
			return res, st, err
		}
		if err := timed("windows", func() (s tracestore.ScanStats, err error) {
			res.Windows[i], s, err = r.TimeWindows(ctx, lvl, 16, workers)
			return s, err
		}); err != nil {
			return res, st, err
		}
		if err := timed("phases", func() (s tracestore.ScanStats, err error) {
			res.Phases[i], s, err = r.PhaseBoundaries(ctx, lvl, 16, 0.5, workers)
			return s, err
		}); err != nil {
			return res, st, err
		}
	}
	lo, hi, _ := r.TimeBounds()
	rng := tracestore.TimeRange{Min: lo + 0.45*(hi-lo), Max: lo + 0.55*(hi-lo)}
	err := timed("pruned", func() (tracestore.ScanStats, error) {
		q := tracestore.Query{Columns: tracestore.Cols(tracestore.ColTime, tracestore.ColLevel), Time: &rng, Workers: workers}
		return r.Scan(ctx, q, func(pd *tracestore.PartitionData) error {
			for i, t := range pd.Time {
				if t >= rng.Min && t <= rng.Max {
					res.Pruned[pd.Level[i]]++
				}
			}
			return nil
		})
	})
	return res, st, err
}

// storeRound writes the store and runs the mix once.
type storeRound struct {
	WriteS float64
	Events int64
	Bytes  int64
	Mix    mixStats
	Res    mixResult
	MixS   float64
}

func runStoreRound(ctx context.Context, path string, in *inputs, workers int, tr *tracer) (storeRound, error) {
	var rd storeRound
	id := tr.begin("tracestore.write", 0)
	start := time.Now()
	events, size, err := writeStore(path, in.Traces)
	rd.WriteS = time.Since(start).Seconds()
	tr.end(id)
	if err != nil {
		return rd, fmt.Errorf("writing %s: %w", path, err)
	}
	rd.Events, rd.Bytes = events, size
	r, err := tracestore.Open(path)
	if err != nil {
		return rd, err
	}
	defer r.Close()
	if r.Events() != events {
		return rd, fmt.Errorf("store holds %d events, wrote %d", r.Events(), events)
	}
	// Collect the write's garbage first, so the scans are not charged for
	// a collection the write caused.
	runtime.GC()
	start = time.Now()
	rd.Res, rd.Mix, err = queryMix(ctx, r, workers, tr)
	rd.MixS = time.Since(start).Seconds()
	return rd, err
}

func runStore(ctx context.Context, cfg config, w io.Writer) (*report, error) {
	path := filepath.Join(cfg.Work, fmt.Sprintf("store-%d.mpts", cfg.Seed))
	off := newTracer()
	in, setupS, err := setupRepeated(setupRuns, func() (*inputs, error) {
		in, err := generateInputs(cfg.Seed)
		if err != nil {
			return nil, err
		}
		_, err = runStoreRound(ctx, path, in, cfg.Procs, off)
		return in, err
	}, func(*inputs) error {
		// Free one set-up's inputs before the next, so peak RSS does not
		// depend on when the collector happened to run.
		runtime.GC()
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &report{SetupS: setupS}
	var writeRates, scanRates []float64
	ms := make(map[string][]float64)
	var last storeRound
	start := time.Now()
	for len(writeRates) == 0 || time.Since(start).Seconds() < cfg.Seconds {
		rep.Attempted++
		rd, err := runStoreRound(ctx, path, in, cfg.Procs, off)
		if err != nil {
			rep.Failed++
			rep.check("store rounds", false, "%v", err)
			break
		}
		last = rd
		writeRates = append(writeRates, float64(rd.Events)/rd.WriteS)
		scanRates = append(scanRates, float64(rd.Mix.Events)/rd.MixS)
		rep.LatencyMs = append(rep.LatencyMs, rd.Mix.QueryMs...)
		for k, v := range rd.Mix.Ms {
			ms[k] = append(ms[k], v)
		}
	}
	rep.Throughput = median(scanRates)

	rep.PeakRSSMB = maxRSSSelfMB()
	rep.add("scan_events_per_s", rep.Throughput, "events/s", fmt.Sprintf("events scanned / scan wall, median of %d query mixes", len(scanRates)))
	rep.add("store_write_events_per_s", median(writeRates), "events/s", fmt.Sprintf("median of %d writes of %d events", len(writeRates), last.Events))
	for _, k := range queryNames {
		rep.add("scan_"+k+"_ms", median(ms[k]), "ms", "median per mix, both levels")
	}
	if last.Events > 0 {
		checkStore(ctx, path, cfg.Procs, last, rep)
	}
	rep.add("periodic_events_pct", in.periodicShare(), "%", "bt/cg/lu share of the stored events")
	return rep, nil
}

// checkStore verifies that the mix gives identical answers at 1 and at
// workers workers, and that the pruned scan skipped partitions.
func checkStore(ctx context.Context, path string, workers int, last storeRound, rep *report) {
	r, err := tracestore.Open(path)
	if err != nil {
		rep.check("parallel scans", false, "%v", err)
		return
	}
	defer r.Close()
	off := newTracer()
	serial, _, err1 := queryMix(ctx, r, 1, off)
	parallel, _, err2 := queryMix(ctx, r, workers, off)
	rep.check("parallel scans", err1 == nil && err2 == nil && reflect.DeepEqual(serial, parallel) && reflect.DeepEqual(serial, last.Res),
		"answers at 1 and %d workers identical (errors %v, %v)", workers, err1, err2)
	rep.check("pruning", last.Mix.Scan.Pruned > 0, "%d partitions pruned by the time-bounded scan", last.Mix.Scan.Pruned)
}
