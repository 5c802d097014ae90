package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ice/internal/sched/health"
	"ice/internal/telemetry"
	"ice/internal/trace"
)

// Gateway exposes a Scheduler over HTTP/JSON — the multi-tenant intake
// the paper's remote operators submit experiments through:
//
//	POST /v1/jobs             submit a JobSpec  → 202 + job, 429 + Retry-After when saturated
//	GET  /v1/jobs             list jobs (?tenant= filters)
//	GET  /v1/jobs/{id}        one job's state and result
//	GET  /v1/jobs/{id}/events live progress as server-sent events
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /v1/leases           active instrument leases
//	GET  /v1/metrics          one coherent snapshot of every series
//	                          (text by default, ?format=json for JSON)
//	GET  /v1/traces           stored trace summaries, newest first
//	GET  /v1/traces/{id}      one trace: spans + critical-path breakdown
type Gateway struct {
	S     *Scheduler
	reg   *telemetry.Registry
	mux   *http.ServeMux
	ready func() ReadyStatus
}

// ReadyStatus is GET /v1/readyz: whether this gateway is serving its
// facility, in which role, and how far its replication stream lags.
// A standalone gateway is always the leader of its own (unnamed)
// facility with no replication; a cluster node installs its own
// provider with SetReady.
type ReadyStatus struct {
	Ready    bool   `json:"ready"`
	Role     string `json:"role"` // "leader" or "replica"
	Facility string `json:"facility,omitempty"`
	Term     uint64 `json:"term,omitempty"`
	// ReplicationLag counts records accepted locally but not yet
	// acknowledged by all peers (0 when fully replicated).
	ReplicationLag int64           `json:"replication_lag"`
	Peers          map[string]bool `json:"peers,omitempty"`
}

// NewGateway wires the routes and assembles the metrics registry: the
// scheduler's QoS collector plus the tracer's span, store, and
// flight-recorder counters, all served from one Snapshot.
func NewGateway(s *Scheduler) *Gateway {
	reg := telemetry.NewRegistry()
	reg.AddCollector("", s.Metrics())
	reg.AddSource(traceSource(s.Tracer()))
	g := &Gateway{S: s, reg: reg, mux: http.NewServeMux()}
	g.mux.HandleFunc("POST /v1/jobs", g.submit)
	g.mux.HandleFunc("GET /v1/jobs", g.list)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.job)
	g.mux.HandleFunc("GET /v1/jobs/{id}/events", g.events)
	g.mux.HandleFunc("POST /v1/jobs/{id}/cancel", g.cancel)
	g.mux.HandleFunc("GET /v1/leases", g.leases)
	g.mux.HandleFunc("GET /v1/metrics", g.metrics)
	g.mux.HandleFunc("GET /v1/traces", g.traces)
	g.mux.HandleFunc("GET /v1/traces/{id}", g.traceByID)
	g.mux.HandleFunc("GET /v1/healthz", g.healthz)
	g.mux.HandleFunc("GET /v1/readyz", g.readyz)
	return g
}

// Registry returns the gateway's metrics registry; a cluster node
// adds its replication/leadership gauges to it so /v1/metrics and
// /v1/readyz tell one coherent story.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// SetReady installs the readiness provider (cluster role, term,
// replication lag). Without one, readyz reports a standalone leader
// whose lag comes from the collector's cluster.replication.lag gauge
// (zero when no cluster is attached).
func (g *Gateway) SetReady(f func() ReadyStatus) { g.ready = f }

// healthz is process liveness plus the instrument health view: the
// per-instrument breaker snapshots and the count currently
// quarantined. The process answers 200 even with instruments down —
// operators watch the quarantined count, orchestrators the status code.
func (g *Gateway) healthz(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		OK          bool                    `json:"ok"`
		Quarantined int                     `json:"quarantined,omitempty"`
		Instruments []health.ResourceHealth `json:"instruments,omitempty"`
	}{OK: true}
	if sup := g.S.Health(); sup != nil {
		resp.Instruments = sup.Snapshot()
		for _, ih := range resp.Instruments {
			if ih.State != health.Closed {
				resp.Quarantined++
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// readyz reports role and replication health; 503 while not ready so
// load balancers and peers stop routing here.
func (g *Gateway) readyz(w http.ResponseWriter, r *http.Request) {
	st := ReadyStatus{Ready: true, Role: "leader"}
	if g.ready != nil {
		st = g.ready()
	} else {
		st.ReplicationLag = g.S.Metrics().GaugeValue("cluster.replication.lag")
	}
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// traceSource exposes the tracer's counters as metric series.
func traceSource(tr *trace.Tracer) telemetry.Source {
	return func() map[string]int64 {
		st := tr.Stats()
		out := map[string]int64{
			"trace.spans.started":  st.Started,
			"trace.spans.finished": st.Finished,
			"trace.spans.sampled":  st.Sampled,
			"trace.spans.dropped":  st.Dropped,
			"trace.spans.errors":   st.Errors,
			"trace.tail_rescued":   st.TailRescued,
			"trace.recorder.dumps": st.RecorderDump,
		}
		if store := tr.Store(); store != nil {
			ss := store.Stats()
			out["trace.store.traces"] = int64(ss.Traces)
			out["trace.store.spans"] = int64(ss.Spans)
			out["trace.store.evicted_traces"] = ss.EvictedTraces
			out["trace.store.dropped_spans"] = ss.DroppedSpans
		}
		if rec := tr.Recorder(); rec != nil {
			rs := rec.Stats()
			out["trace.recorder.held"] = int64(rs.Held)
			out["trace.recorder.noted"] = rs.Noted
			out["trace.recorder.evicted"] = rs.Evicted
		}
		return out
	}
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error      string  `json:"error"`
	RetryAfter float64 `json:"retry_after_s,omitempty"`
	// Permanent: resubmitting unchanged will never succeed here; try
	// another facility instead of sleeping on Retry-After.
	Permanent bool `json:"permanent,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

// submit is the admission edge: *Busy rejections become 429 with a
// Retry-After header so well-behaved clients back off instead of
// hammering a saturated gateway.
func (g *Gateway) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxJobSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	// Parse only: Submit validates the spec as its first step, and an
	// invalid one comes back through the 400 default below.
	spec, err := parseJobSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := g.S.Submit(spec)
	if err != nil {
		var busy *Busy
		var unavail *Unavailable
		switch {
		case errors.As(err, &busy):
			secs := int(busy.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, apiError{
				Error:      busy.Reason,
				RetryAfter: busy.RetryAfter.Seconds(),
			})
		case errors.As(err, &unavail):
			// 503, not 429: the facility is sick, not saturated. The
			// Retry-After reflects the quarantine cool-down so the client
			// resubmits when a recovery probe could have run.
			secs := int(unavail.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusServiceUnavailable, apiError{
				Error:      unavail.Reason,
				RetryAfter: unavail.RetryAfter.Seconds(),
				Permanent:  unavail.Permanent,
			})
		case errors.Is(err, ErrStopped):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (g *Gateway) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []Job `json:"jobs"`
	}{Jobs: g.S.TenantJobs(r.URL.Query().Get("tenant"))})
}

func (g *Gateway) job(w http.ResponseWriter, r *http.Request) {
	job, ok := g.S.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// events streams the job's progress as server-sent events: the full
// backlog first, then live events until the job reaches a terminal
// state or the client disconnects.
func (g *Gateway) events(w http.ResponseWriter, r *http.Request) {
	past, live, unsub, err := g.S.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	defer unsub()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for _, ev := range past {
		if !writeEvent(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				fmt.Fprint(w, "event: end\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			if !writeEvent(ev) {
				return
			}
		}
	}
}

func (g *Gateway) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := g.S.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	job, _ := g.S.Job(id)
	writeJSON(w, http.StatusAccepted, job)
}

func (g *Gateway) leases(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Leases []LeaseInfo `json:"leases"`
	}{Leases: g.S.Leases().Active()})
}

func (g *Gateway) metrics(w http.ResponseWriter, r *http.Request) {
	snap := g.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, strings.Join(snap.Render(), "\n"))
}

// TraceResponse is GET /v1/traces/{id}: the trace's spans in start
// order plus the critical-path decomposition of its wall time.
type TraceResponse struct {
	TraceID   string          `json:"trace_id"`
	Spans     []trace.Record  `json:"spans"`
	Breakdown trace.Breakdown `json:"breakdown"`
}

func (g *Gateway) traces(w http.ResponseWriter, r *http.Request) {
	store := g.S.Tracer().Store()
	if store == nil {
		writeError(w, http.StatusNotFound, "tracing has no store attached")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []trace.Summary `json:"traces"`
	}{Traces: store.Summaries()})
}

func (g *Gateway) traceByID(w http.ResponseWriter, r *http.Request) {
	store := g.S.Tracer().Store()
	if store == nil {
		writeError(w, http.StatusNotFound, "tracing has no store attached")
		return
	}
	id := r.PathValue("id")
	recs := store.Trace(id)
	if len(recs) == 0 {
		writeError(w, http.StatusNotFound, "unknown trace")
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{
		TraceID:   id,
		Spans:     recs,
		Breakdown: trace.Analyze(recs),
	})
}
