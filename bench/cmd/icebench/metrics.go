package main

import (
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json at the repo
// root restates these tables (a test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is what a remote scientist sees, the same on every
// workload.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s", "higher", 0.10},
	{"verdict_p50_s", "s", "lower", 0.10},
	{"verdict_p95_s", "s", "lower", 0.15},
	{"admit_p50_s", "s", "lower", 0.25},
	{"alloc_mb_per_job", "MB", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger a regression is attributed with. Source S is
// a harness span of the traced run, C a count read from outside the
// layer, P a timed direct call (probes.go).
var perLayer = []metricDef{
	{name: "failed_frac", unit: "ratio", better: "lower"},

	{name: "sched.gateway_admit_p99_s", unit: "s", better: "lower"},
	{name: "sched.gateway_sse_lag_p50_s", unit: "s", better: "lower"},
	{name: "sched.queue_wait_p50_s", unit: "s", better: "lower"},
	{name: "sched.queue_wait_p95_s", unit: "s", better: "lower"},
	{name: "sched.lease_wait_p50_s", unit: "s", better: "lower"},
	{name: "sched.lease_held_per_job_s", unit: "s", better: "lower"},
	{name: "sched.lease_util_echem", unit: "ratio", better: "higher"},
	{name: "sched.lease_util_stem", unit: "ratio", better: "higher"},
	{name: "sched.jobs_per_s_first2k", unit: "jobs/s", better: "higher"},
	{name: "sched.jobs_per_s_last2k", unit: "jobs/s", better: "higher"},
	{name: "sched.submit_ns_empty", unit: "ns", better: "lower"},
	{name: "sched.submit_ns_20k", unit: "ns", better: "lower"},
	{name: "sched.decode_jobspec_ns_cv", unit: "ns", better: "lower"},
	{name: "sched.decode_jobspec_ns_dag", unit: "ns", better: "lower"},
	{name: "sched.wal_append_s", unit: "s", better: "lower"},
	{name: "sched.wal_records_per_sync", unit: "count", better: "higher"},
	{name: "sched.wal_records_per_job", unit: "count", better: "lower"},
	{name: "sched.lease_cycle_ns", unit: "ns", better: "lower"},
	{name: "sched.events_per_job", unit: "count", better: "lower"},
	{name: "sched.rejected", unit: "count", better: "lower"},
	{name: "sched.sse_terminal_missed", unit: "count", better: "lower"},

	{name: "trace.span_ns", unit: "ns", better: "lower"},
	{name: "trace.spans_per_job_cv", unit: "count", better: "lower"},
	{name: "telemetry.metrics_get_s", unit: "s", better: "lower"},

	{name: "workflow.task_A_s", unit: "s", better: "lower"},
	{name: "workflow.task_B_s", unit: "s", better: "lower"},
	{name: "workflow.task_C_s", unit: "s", better: "lower"},
	{name: "workflow.task_D_s", unit: "s", better: "lower"},
	{name: "workflow.task_E_s", unit: "s", better: "lower"},

	{name: "core.connect_p50_s", unit: "s", better: "lower"},
	{name: "core.connects_per_job", unit: "count", better: "lower"},
	{name: "core.measured_to_verdict_s", unit: "s", better: "lower"},
	{name: "core.cv_verdict_p50_s", unit: "s", better: "lower"},
	{name: "microscope.scan_verdict_p50_s", unit: "s", better: "lower"},
	{name: "campaign.verdict_p50_s", unit: "s", better: "lower"},
	{name: "dag.hit_verdict_p50_s", unit: "s", better: "lower"},
	{name: "dag.miss_verdict_p50_s", unit: "s", better: "lower"},

	{name: "pyro.wan_rtt_p50_s", unit: "s", better: "lower"},
	{name: "pyro.call_cpu_ns", unit: "ns", better: "lower"},
	{name: "pyro.calls_per_job_cv", unit: "count", better: "lower"},
	{name: "pyro.bytes_per_call", unit: "bytes", better: "lower"},
	{name: "netsim.wan_rtt_floor_s", unit: "s", better: "lower"},

	{name: "datachan.retrieve_p50_s", unit: "s", better: "lower"},
	{name: "datachan.bytes_per_job", unit: "bytes", better: "lower"},
	{name: "datachan.mb_per_s", unit: "MB/s", better: "higher"},
	{name: "datachan.ops_per_job", unit: "count", better: "lower"},

	{name: "echem.simulate_cv_s", unit: "s", better: "lower"},
	{name: "potentiostat.acquire_s", unit: "s", better: "lower"},
	{name: "analysis.analyze_cv_s", unit: "s", better: "lower"},
	{name: "ml.classify_s", unit: "s", better: "lower"},
	{name: "ml.train_s", unit: "s", better: "lower"},

	{name: "dag.decode_spec_ns", unit: "ns", better: "lower"},
	{name: "dag.cache_key_ns", unit: "ns", better: "lower"},
	{name: "dag.blob_put_s", unit: "s", better: "lower"},
	{name: "dag.blob_get_s", unit: "s", better: "lower"},
	{name: "dag.node_hit_ratio", unit: "ratio", better: "higher"},
	{name: "dag.evictions", unit: "count", better: "lower"},

	{name: "labreg.build_s", unit: "s", better: "lower"},
	{name: "labreg.decode_config_ns", unit: "ns", better: "lower"},

	{name: "proc.cpu_s_per_job", unit: "s", better: "lower"},
	{name: "proc.allocs_per_job", unit: "count", better: "lower"},
	{name: "proc.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "proc.goroutines_peak", unit: "count", better: "lower"},
	{name: "proc.gc_pause_total_s", unit: "s", better: "lower"},

	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}

// sample starts a background sampler of the heap in use and the
// goroutine count, keeping their high-water marks on run; the returned
// func stops it and waits for it.
func (run *tracedRun) sample() (stop func()) {
	const heapObjects = "/memory/classes/heap/objects:bytes"
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		samples := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if samples[0].Value.Kind() == metrics.KindUint64 && samples[0].Value.Uint64() > run.heapPeak {
				run.heapPeak = samples[0].Value.Uint64()
			}
			if n := runtime.NumGoroutine(); n > run.goroutinesPeak {
				run.goroutinesPeak = n
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// timeMetricsGet is the median of five GET /v1/metrics round trips:
// the operator's path, whose cost grows with what the run recorded.
func timeMetricsGet(base string) (time.Duration, error) {
	return medianOp(5, func(int) error {
		resp, err := http.Get(base + "/v1/metrics")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	})
}
