package main

import (
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"ice/internal/dag"
)

// historyWindow is how many jobs sched.jobs_per_s_first2k and _last2k
// each average over.
const historyWindow = 2000

// tracedRun is what the traced phase leaves behind for the per-layer
// ledger.
type tracedRun struct {
	rig    *rig
	phase  *phase
	spans  []span
	tracer *tracer
	// walAppends and walSyncs are the program's WAL counters when the
	// phase began.
	walAppends, walSyncs int64
	// heapPeak and goroutinesPeak are the sampler's high-water marks.
	heapPeak       uint64
	goroutinesPeak int
	// metricsGet is the median GET /v1/metrics round trip after the
	// phase.
	metricsGet time.Duration
}

// layerMetrics derives the span- and count-sourced per-layer metrics
// from a traced run. Metrics that do not apply to the workload (no
// such job kind, no lab) read 0.
func layerMetrics(tr *tracedRun) map[string]float64 {
	m := map[string]float64{}
	p := tr.phase
	jobs := float64(len(p.jobs))

	kindOf := map[string]string{}
	for _, j := range p.jobs {
		kindOf[j.id] = j.gen.kind
	}
	// durs collects the durations, in seconds, of spans with the given
	// name, optionally only for jobs of the given kinds.
	durs := func(name string, kinds ...string) []float64 {
		var out []float64
		for _, s := range tr.spans {
			if s.Name != name {
				continue
			}
			if len(kinds) > 0 && !slices.Contains(kinds, kindOf[s.Job]) {
				continue
			}
			out = append(out, s.dur().Seconds())
		}
		return out
	}
	// perJob sums a span family per job.
	perJob := func(match func(span) bool, value func(span) float64) map[string]float64 {
		out := map[string]float64{}
		for _, s := range tr.spans {
			if match(s) {
				out[s.Job] += value(s)
			}
		}
		return out
	}
	values := func(by map[string]float64) []float64 {
		out := make([]float64, 0, len(by))
		for _, v := range by {
			out = append(out, v)
		}
		return out
	}

	m["sched.gateway_admit_p99_s"] = percentile(durs(spanSubmit), 99)
	m["sched.gateway_sse_lag_p50_s"] = median(durs(spanSSELag))
	m["sched.queue_wait_p50_s"] = median(durs(spanQueued))
	m["sched.queue_wait_p95_s"] = percentile(durs(spanQueued), 95)
	m["sched.lease_wait_p50_s"] = median(durs(spanLeaseWait))

	// Lease accounting: per job, the union of its holds; per instrument
	// class, the union of every job's holds over the phase wall.
	holds := map[string][]interval{}
	var echem, stem []interval
	for _, s := range tr.spans {
		if s.Name != spanHeld {
			continue
		}
		iv := interval{s.Start, s.End}
		holds[s.Job] = append(holds[s.Job], iv)
		if strings.HasPrefix(s.Detail, "stem/") {
			stem = append(stem, iv)
		} else {
			echem = append(echem, iv)
		}
	}
	var held []float64
	for _, ivs := range holds {
		held = append(held, float64(unionLength(ivs))/1e9)
	}
	m["sched.lease_held_per_job_s"] = mean(held)
	m["sched.lease_util_echem"] = utilisation(echem, p.start.UnixNano(), p.end.UnixNano())
	m["sched.lease_util_stem"] = utilisation(stem, p.start.UnixNano(), p.end.UnixNano())

	// History cost: throughput over the first and the last 2 000
	// verdicts of the phase.
	verdicts := make([]time.Time, 0, len(p.jobs))
	for _, j := range p.jobs {
		if !j.verdict.IsZero() {
			verdicts = append(verdicts, j.verdict)
		}
	}
	sort.Slice(verdicts, func(i, j int) bool { return verdicts[i].Before(verdicts[j]) })
	if n := len(verdicts); n >= 2*historyWindow {
		m["sched.jobs_per_s_first2k"] = historyWindow / verdicts[historyWindow-1].Sub(p.start).Seconds()
		m["sched.jobs_per_s_last2k"] = historyWindow / verdicts[n-1].Sub(verdicts[n-1-historyWindow]).Seconds()
	}

	events, rejected, polled := 0, 0, 0
	for _, j := range p.jobs {
		events += len(j.events)
		if j.status != http.StatusAccepted {
			rejected++
		}
		if j.polled {
			polled++
		}
	}
	m["sched.sse_terminal_missed"] = float64(polled)
	m["sched.events_per_job"] = float64(events) / jobs
	m["sched.rejected"] = float64(rejected)
	m["failed_frac"] = float64(len(p.jobs)-p.done()) / jobs

	wal := tr.rig.sched.WAL().Stats()
	if syncs := wal.Syncs - tr.walSyncs; syncs > 0 {
		m["sched.wal_records_per_sync"] = float64(wal.Appends-tr.walAppends) / float64(syncs)
	}
	m["sched.wal_records_per_job"] = float64(wal.Appends-tr.walAppends) / jobs

	// The program's own tracer: spans it stored per cv job.
	if store := tr.rig.sched.Tracer().Store(); store != nil {
		var perCV []float64
		for _, j := range p.jobs {
			if j.gen.kind != kindCV {
				continue
			}
			if job, ok := tr.rig.sched.Job(j.id); ok {
				perCV = append(perCV, float64(len(store.Trace(job.TraceID))))
			}
		}
		m["trace.spans_per_job_cv"] = mean(perCV)
	}
	m["telemetry.metrics_get_s"] = tr.metricsGet.Seconds()

	for _, task := range []string{"A", "B", "C", "D", "E"} {
		m["workflow.task_"+task+"_s"] = median(durs(spanTask+task, kindCV))
	}
	connects := durs(spanConnect)
	m["core.connect_p50_s"] = median(connects)
	m["core.connects_per_job"] = float64(len(connects)) / jobs
	m["core.measured_to_verdict_s"] = median(durs(spanMeasured, kindCV))
	m["core.cv_verdict_p50_s"] = median(durs(spanJob, kindCV))
	m["microscope.scan_verdict_p50_s"] = median(durs(spanJob, kindScan))
	m["campaign.verdict_p50_s"] = median(durs(spanJob, kindCampaign))
	m["dag.hit_verdict_p50_s"] = median(durs(spanJob, kindDAGHit))
	m["dag.miss_verdict_p50_s"] = median(durs(spanJob, kindDAGMiss))
	m["potentiostat.acquire_s"] = median(durs(spanAcquire))

	// The control channel as the station daemons counted it.
	wire := tr.tracer.wireNow()
	if calls := wire.frames - tr.tracer.wireBase.frames; calls > 0 {
		m["pyro.bytes_per_call"] = float64(wire.bytes-tr.tracer.wireBase.bytes) / float64(calls)
	}
	if tr.rig.fac != nil {
		if entries, err := auditEntries(tr.rig); err == nil {
			inPhase := 0
			for _, e := range entries {
				if e.TimeUnixNano >= p.start.UnixNano() {
					inPhase++
				}
			}
			m["pyro.calls_per_job_cv"] = float64(inPhase) / jobs
		}
	}

	// The data channel as the runner used it: payload-carrying requests
	// are the retrieval, every request is an op.
	isData := func(s span) bool { return strings.HasPrefix(s.Name, spanData) }
	moved := func(s span) bool { return isData(s) && s.Bytes > 0 }
	retrieve := perJob(moved, func(s span) float64 { return s.dur().Seconds() })
	bytes := perJob(moved, func(s span) float64 { return float64(s.Bytes) })
	ops := perJob(isData, func(span) float64 { return 1 })
	m["datachan.retrieve_p50_s"] = median(values(retrieve))
	if len(ops) > 0 {
		m["datachan.bytes_per_job"] = sum(values(bytes)) / float64(len(ops))
		m["datachan.ops_per_job"] = sum(values(ops)) / float64(len(ops))
	}
	if t := sum(values(retrieve)); t > 0 {
		m["datachan.mb_per_s"] = sum(values(bytes)) / 1e6 / t
	}

	// The DAG layer as its job results and counters report it.
	cached, ran := 0, 0
	for _, j := range p.jobs {
		if j.gen.kind != kindDAGHit && j.gen.kind != kindDAGMiss {
			continue
		}
		var res dag.Result
		if job, ok := tr.rig.sched.Job(j.id); ok && json.Unmarshal(job.Result, &res) == nil {
			cached += res.NodesCached
			ran += res.NodesRun
		}
	}
	if cached+ran > 0 {
		m["dag.node_hit_ratio"] = float64(cached) / float64(cached+ran)
	}
	m["dag.evictions"] = float64(tr.rig.sched.Metrics().CounterValue("dag.cache.evictions"))

	m["proc.cpu_s_per_job"] = p.cpu.Seconds() / jobs
	m["proc.allocs_per_job"] = float64(p.mallocs) / jobs
	m["proc.heap_peak_mb"] = float64(tr.heapPeak) / 1e6
	m["proc.goroutines_peak"] = float64(tr.goroutinesPeak)
	m["proc.gc_pause_total_s"] = p.gcPause.Seconds()
	return m
}
