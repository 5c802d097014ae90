// Icebench is the gateway-to-verdict benchmark: it brings up a facility
// and a scheduling gateway the way `icegated -lab` does, drives them
// over HTTP as remote scientists would (submit a job, wait for its
// verdict), checks every output, and reports end-to-end metrics from a
// timed run and a per-layer ledger from a traced run and direct probes.
//
//	go run -C bench ./cmd/icebench                        # every workload: timed run, traced run, probes
//	go run -C bench ./cmd/icebench -workload cv_classic   # one workload
//	go run -C bench ./cmd/icebench -quick                 # 1/10 length smoke, never gated
//
// The regression driver runs one workload and one kind of run at a
// time and reads the last line of standard output:
//
//	go run -C bench ./cmd/icebench --workload facility_mix --seed 3 --seconds 20 --trace 0
//
// See bench/README.md for the workloads, the metrics and how a later
// change states a claim against them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ice/internal/testutil"
)

// Run selection for -trace.
const (
	runBoth   = -1
	runTimed  = 0
	runTraced = 1
)

// result is one workload's outcome: the contract's final line, plus
// everything else the results file records.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are problems that made the run incorrect.
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v := values[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // JSON has no Inf; a failed job misses every limit
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// errChecksMissed is run's verdict when an output, audit or leak check
// missed on some workload.
var errChecksMissed = errors.New("checks missed, results not written")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same job sequences")
	seconds := flag.Float64("seconds", 20, "length of the timed phase; the traced phases run a quarter of it")
	traceMode := flag.Int("trace", runBoth, "0 = timed run only (end-to-end metrics), 1 = traced run and probes only (per-layer metrics), -1 = both")
	quick := flag.Bool("quick", false, "smoke run at a tenth of -seconds; numbers from it are never gated")
	outDir := flag.String("out", "out", "directory for results.json, trace_<workload>.jsonl and the temporary state directories")
	flag.Parse()

	if *quick {
		*seconds /= 10
	}
	var selected []*workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	switch {
	case len(selected) == 0:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds <= 0 || *traceMode < runBoth || *traceMode > runTraced || flag.NArg() > 0:
		return fmt.Errorf("bad -seconds, -trace or stray arguments (see -help)")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	// State lives under the output directory, not the system temp dir:
	// the WAL's fsyncs are part of what is measured, so they should hit
	// the filesystem the checkout is on.
	stateRoot, err := os.MkdirTemp(*outDir, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateRoot)

	env := environment(stateRoot)
	fmt.Printf("icebench: seed %d, %.3gs timed phase, %s, GOMAXPROCS %d of %d CPUs, commit %s, state on %s\n",
		*seed, *seconds, env["go"], env["gomaxprocs"], env["nproc"], env["commit"], env["state_fs"])

	dur := time.Duration(*seconds * float64(time.Second))
	results := map[string]*result{}
	correct := true
	var probes map[string]float64
	for _, w := range selected {
		res := &result{Correct: true, Metrics: map[string]metric{}}
		results[w.name] = res
		if *traceMode != runTraced {
			if err := timedRun(stateRoot, w, *seed, dur, res); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		if *traceMode != runTimed {
			if probes == nil {
				if probes, err = runProbes(stateRoot); err != nil {
					return fmt.Errorf("probes: %w", err)
				}
			}
			tracePath := filepath.Join(*outDir, "trace_"+w.name+".jsonl")
			if err := tracedRuns(stateRoot, w, *seed, dur/4, probes, tracePath, res); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		report(w, res)
		correct = correct && res.Correct
	}

	// Numbers from a system that did not do its job are not written.
	if correct && *name == "" {
		path := filepath.Join(*outDir, "results.json")
		if err := writeResults(path, env, *seed, *seconds, results); err != nil {
			return err
		}
		fmt.Println("icebench: wrote", path)
	}
	if len(selected) == 1 {
		line, err := json.Marshal(results[selected[0].name])
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !correct {
		return errChecksMissed
	}
	return nil
}

// Set-up is repeated until it has run setupRounds times and for
// setupMinTotal in all (a null-runner set-up takes milliseconds, so
// three of them would be a noisy median), at most setupMaxRounds.
const (
	setupRounds    = 3
	setupMinTotal  = 500 * time.Millisecond
	setupMaxRounds = 25
)

// timedRun measures the end-to-end metrics: repeated set-up, then the
// closed loop for dur with production types unwrapped, then every
// output, audit and leak check.
func timedRun(stateRoot string, w *workload, seed int64, dur time.Duration, res *result) error {
	baseline := runtime.NumGoroutine()
	var r *rig
	var warm []*jobRecord
	var setups []float64
	for total := time.Duration(0); ; {
		start := time.Now()
		var err error
		if r, warm, err = setUp(stateRoot, w, nil); err != nil {
			return err
		}
		took := time.Since(start)
		setups = append(setups, took.Seconds())
		total += took
		if len(setups) >= setupRounds && total >= setupMinTotal || len(setups) == setupMaxRounds {
			break
		}
		if err := r.close(); err != nil {
			return err
		}
	}
	defer r.close()

	p, err := drive(r, w, seed, dur, false)
	if err != nil {
		return err
	}
	verify(r, warm, p, baseline, res, nil)

	samples := p.samples()
	res.set(endToEnd, map[string]float64{
		"jobs_per_s":       overBlocks(samples, doneRate),
		"verdict_p50_s":    overBlocks(samples, latencyPercentile(50)),
		"verdict_p95_s":    overBlocks(samples, latencyPercentile(95)),
		"admit_p50_s":      overBlocks(samples, admitMedian),
		"alloc_mb_per_job": float64(p.allocBytes) / 1e6 / float64(len(p.jobs)),
		"setup_s":          median(setups),
	})
	return nil
}

// verify checks every job's output, reconciles the audit journals and
// the lease table, tears the rig down and checks for leaked
// goroutines, recording the phase's attempted and failed counts.
// inspect, when set, runs after the output checks while the rig is
// still up.
func verify(r *rig, warm []*jobRecord, p *phase, baseline int, res *result, inspect func()) {
	all := append(append([]*jobRecord(nil), warm...), p.jobs...)
	checkJobs(r, all)
	if inspect != nil {
		inspect()
	}
	shown := 0
	for _, j := range all {
		if j.checkErr != nil {
			if shown++; shown <= 5 {
				res.fail("%v", j.checkErr)
			}
		}
	}
	if shown > 5 {
		res.fail("... and %d more failed jobs", shown-5)
	}
	if err := reconcile(r, all); err != nil {
		res.fail("%v", err)
	}
	if err := r.close(); err != nil {
		res.fail("teardown: %v", err)
	}
	if err := testutil.WaitGoroutines(baseline, goroutineSlack, 5*time.Second); err != nil {
		res.fail("%v", err)
	}
	res.Attempted += len(p.jobs)
	res.Failed += len(p.jobs) - p.done()
}

// tracedRuns produces the per-layer ledger: the workload once more
// untraced and once with the harness's decorators recording spans,
// both for dur, so the difference between them is the tracing
// overhead; then the span- and count-sourced metrics, joined with the
// probes'.
func tracedRuns(stateRoot string, w *workload, seed int64, dur time.Duration, probes map[string]float64, tracePath string, res *result) error {
	baseline := runtime.NumGoroutine()
	r, warm, err := setUp(stateRoot, w, nil)
	if err != nil {
		return err
	}
	defer r.close()
	plain, err := drive(r, w, seed, dur, false)
	if err != nil {
		return err
	}
	verify(r, warm, plain, baseline, res, nil)

	baseline = runtime.NumGoroutine()
	tr := newTracer()
	if r, warm, err = setUp(stateRoot, w, tr); err != nil {
		return err
	}
	defer r.close()
	tr.reset()
	wal := r.sched.WAL().Stats()
	run := &tracedRun{rig: r, tracer: tr, walAppends: wal.Appends, walSyncs: wal.Syncs}
	stop := run.sample()
	run.phase, err = drive(r, w, seed, dur, true)
	stop()
	if err != nil {
		return err
	}
	if run.metricsGet, err = timeMetricsGet(r.base); err != nil {
		return err
	}
	var values map[string]float64
	verify(r, warm, run.phase, baseline, res, func() {
		run.spans = tr.assemble(run.phase.jobs)
		values = layerMetrics(run)
	})
	for k, v := range probes {
		values[k] = v
	}
	if plainRate := overBlocks(plain.samples(), doneRate); plainRate > 0 {
		values["bench.trace_overhead_frac"] = 1 - overBlocks(run.phase.samples(), doneRate)/plainRate
	}
	res.set(perLayer, values)
	return writeSpans(tracePath, run.spans)
}

// report prints one workload's metrics by name and unit, end-to-end
// first, in their declared order.
func report(w *workload, res *result) {
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Printf("\n%s: %s — %d jobs attempted, %d failed\n", w.name, status, res.Attempted, res.Failed)
	for _, note := range res.notes {
		fmt.Println("  !", note)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Printf("  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
}

// environment records where the numbers came from.
func environment(stateRoot string) map[string]any {
	// go run stamps no VCS revision; ask git, which a bare checkout of
	// the files does not have.
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
		"state_fs":   filesystemOf(stateRoot),
	}
}

// filesystemOf names the filesystem a path is on (the WAL's fsync cost
// depends on it).
func filesystemOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-%#x", uint32(st.Type))
}

func writeResults(path string, env map[string]any, seed int64, seconds float64, results map[string]*result) error {
	data, err := json.MarshalIndent(map[string]any{
		"environment": env,
		"seed":        seed,
		"seconds":     seconds,
		"workloads":   results,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
