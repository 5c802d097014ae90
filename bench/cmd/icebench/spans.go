package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/labreg"
	"ice/internal/sched"
	"ice/internal/telemetry"
)

// span is one timed stretch of a job, recorded by the harness at a
// layer boundary. Spans of one job share its job ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its children
	// cover; filled in by setSelfTimes.
	Self int64 `json:"self_ns"`
	// Detail qualifies the name: the job's kind on a job span, the
	// leased resource on a lease.held span.
	Detail string `json:"detail,omitempty"`
	// Bytes is the payload a data-channel span moved.
	Bytes int `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names the harness records. Client-side spans come from the HTTP
// calls, event spans are cut from SSE event timestamps, wrapper spans
// from the decorators below.
const (
	spanJob       = "job"              // POST sent → terminal event received
	spanSubmit    = "http.submit"      // POST round trip
	spanSSE       = "http.sse"         // events request → terminal event received
	spanSSELag    = "http.sse_lag"     // terminal event emitted → received
	spanQueued    = "sched.queued"     // queued event → started event
	spanLeaseWait = "sched.lease_wait" // started event → first lease acquired
	spanHeld      = "lease.held"       // lease acquired → released, per hold
	spanTask      = "workflow.task."   // + task ID: running → OK
	spanAcquire   = "potentiostat.acquire"
	spanPostLease = "post_lease"               // first release → terminal event
	spanMeasured  = "core.measured_to_verdict" // measured event → terminal event
	spanRun       = "runner.run"               // sched.Runner decorator
	spanConnect   = "core.connect"
	spanData      = "datachan." // + Share method
)

// tracer is the harness's in-memory span sink for the traced run. The
// program's own internal/trace stays at icegated's defaults in both
// runs; these spans are recorded from outside every layer.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// wire collects the station daemons' pyro.wire.* counters; wireBase
	// is their reading when the phase began.
	wire     *telemetry.Collector
	wireBase wireCounts
}

func newTracer() *tracer { return &tracer{wire: telemetry.NewCollector()} }

// add records a wrapper span. IDs start at 1; assemble sets parents.
func (t *tracer) add(job, name string, start, end time.Time, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Job: job, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Bytes: bytes})
}

// reset forgets the spans recorded so far (the warm-up's) and marks
// the wire counters, so a phase reports only its own work.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.wireBase = t.wireNow()
}

// wireNow reads the station daemons' frame and byte counters.
func (t *tracer) wireNow() wireCounts {
	return wireCounts{
		frames: t.wire.CounterValue("pyro.wire.frames_in"),
		bytes:  t.wire.CounterValue("pyro.wire.bytes_in") + t.wire.CounterValue("pyro.wire.bytes_out"),
	}
}

// wireCounts is the daemons' view of the control channel: requests
// received, and bytes in both directions.
type wireCounts struct{ frames, bytes int64 }

// meterDaemons attaches the wire-counter collector to every station's
// control daemon.
func (t *tracer) meterDaemons(f *labreg.Facility) {
	for _, st := range f.Stations() {
		st.Daemon().SetMetrics(t.wire)
	}
}

// wrapRunner decorates the scheduler's runner: every Run is a
// runner.run span, and a lab runner additionally gets a per-job
// connector whose sessions and data shares record spans under the
// job's ID.
func (t *tracer) wrapRunner(inner sched.Runner, lab *sched.LabRunner) sched.Runner {
	return sched.RunnerFunc(func(ctx context.Context, job sched.Job, emit func(string, string)) (json.RawMessage, error) {
		start := time.Now()
		run := inner
		if lab != nil {
			perJob := *lab
			perJob.Connector = &tracedConnector{t: t, job: job.ID, inner: lab.Connector.(facilityConnector)}
			run = &perJob
		}
		res, err := run.Run(ctx, job, emit)
		t.add(job.ID, spanRun, start, time.Now(), 0)
		return res, err
	})
}

// facilityConnector is what a labreg.Facility offers the runner.
type facilityConnector interface {
	sched.Connector
	sched.ScanConnector
}

// tracedConnector times connection set-up and hands out traced shares.
type tracedConnector struct {
	t     *tracer
	job   string
	inner facilityConnector
}

func (c *tracedConnector) ConnectSession() (*core.RemoteSession, datachan.Share, error) {
	start := time.Now()
	session, share, err := c.inner.ConnectSession()
	c.t.add(c.job, spanConnect, start, time.Now(), 0)
	return session, c.wrap(share), err
}

func (c *tracedConnector) ConnectLab() (*core.LabSession, datachan.Share, error) {
	start := time.Now()
	session, share, err := c.inner.ConnectLab()
	c.t.add(c.job, spanConnect, start, time.Now(), 0)
	return session, c.wrap(share), err
}

func (c *tracedConnector) ConnectScan() (*core.RemoteSession, datachan.Share, string, error) {
	start := time.Now()
	session, share, object, err := c.inner.ConnectScan()
	c.t.add(c.job, spanConnect, start, time.Now(), 0)
	return session, c.wrap(share), object, err
}

func (c *tracedConnector) wrap(share datachan.Share) datachan.Share {
	if share == nil {
		return nil
	}
	return &tracedShare{Share: share, t: c.t, job: c.job}
}

// tracedShare records every request the runner makes of the data
// channel. Methods not overridden (Watch, Broken, Close) pass through.
type tracedShare struct {
	datachan.Share
	t   *tracer
	job string
}

func (s *tracedShare) record(op string, start time.Time, bytes int) {
	s.t.add(s.job, spanData+op, start, time.Now(), bytes)
}

func (s *tracedShare) List() ([]datachan.FileInfo, error) {
	defer s.record("List", time.Now(), 0)
	return s.Share.List()
}

func (s *tracedShare) Stat(name string) (datachan.FileInfo, error) {
	defer s.record("Stat", time.Now(), 0)
	return s.Share.Stat(name)
}

func (s *tracedShare) Checksum(name string) (string, int64, error) {
	defer s.record("Checksum", time.Now(), 0)
	return s.Share.Checksum(name)
}

func (s *tracedShare) ReadAt(name string, offset int64, length int) ([]byte, bool, error) {
	start := time.Now()
	data, eof, err := s.Share.ReadAt(name, offset, length)
	s.record("ReadAt", start, len(data))
	return data, eof, err
}

func (s *tracedShare) ReadAll(name string) ([]byte, error) {
	start := time.Now()
	data, err := s.Share.ReadAll(name)
	s.record("ReadAll", start, len(data))
	return data, err
}

func (s *tracedShare) ReadAllVerified(name string) ([]byte, error) {
	start := time.Now()
	data, err := s.Share.ReadAllVerified(name)
	s.record("ReadAllVerified", start, len(data))
	return data, err
}

func (s *tracedShare) WaitFor(substr string, poll, timeout time.Duration) ([]byte, string, error) {
	start := time.Now()
	data, name, err := s.Share.WaitFor(substr, poll, timeout)
	s.record("WaitFor", start, len(data))
	return data, name, err
}

func (s *tracedShare) WaitForContext(ctx context.Context, substr string, poll time.Duration) ([]byte, string, error) {
	start := time.Now()
	data, name, err := s.Share.WaitForContext(ctx, substr, poll)
	s.record("WaitForContext", start, len(data))
	return data, name, err
}

// assemble builds the traced run's span forest: for every job a root
// job span with the client-side spans and the spans cut from its SSE
// events under it, the decorators' wrapper spans adopted by job ID
// (runner.run under the root, everything recorded inside the runner
// under runner.run), and self times filled in.
func (t *tracer) assemble(jobs []*jobRecord) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	wrappers := map[string][]int{}
	for i, s := range t.spans {
		wrappers[s.Job] = append(wrappers[s.Job], i)
	}
	for _, rec := range jobs {
		if rec.id != "" && !rec.verdict.IsZero() {
			t.cutSpans(rec, wrappers[rec.id])
		}
	}
	setSelfTimes(t.spans)
	return t.spans
}

// cutSpans adds one job's spans; wrappers indexes the decorator spans
// already recorded under its ID. The caller holds t.mu.
func (t *tracer) cutSpans(rec *jobRecord, wrappers []int) {
	put := func(name, detail string, parent int, start, end time.Time) int {
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Job: rec.id, Name: name, Detail: detail,
			Start: start.UnixNano(), End: end.UnixNano()})
		return id
	}
	root := put(spanJob, rec.gen.kind, 0, rec.sent, rec.verdict)
	put(spanSubmit, "", root, rec.sent, rec.acked)
	put(spanSSE, "", root, rec.sseStart, rec.verdict)

	// Spans recorded inside the runner hang under runner.run when the
	// decorator saw the job, under the root otherwise.
	inRunner := root
	for _, i := range wrappers {
		if t.spans[i].Name == spanRun {
			t.spans[i].Parent, inRunner = root, t.spans[i].ID
		}
	}
	for _, i := range wrappers {
		if t.spans[i].Name != spanRun {
			t.spans[i].Parent = inRunner
		}
	}

	var queued, started, firstAcquired, firstReleased, measured time.Time
	holdStart := map[string]time.Time{}
	taskStart := map[string]time.Time{}
	for _, ev := range rec.events {
		at := time.Unix(0, ev.TimeUnixNano)
		switch ev.Type {
		case "queued":
			queued = at
		case "started":
			started = at
			put(spanQueued, "", root, queued, at)
		case "lease":
			verb, resource, _ := strings.Cut(ev.Message, " ")
			switch verb {
			case "acquired":
				holdStart[resource] = at
				if firstAcquired.IsZero() {
					firstAcquired = at
					wait := put(spanLeaseWait, "", inRunner, started, at)
					// Connecting happens on the way to the gate: make it the
					// wait's child, so the wait's self time is the queueing.
					for _, i := range wrappers {
						if w := &t.spans[i]; w.Name == spanConnect && w.End <= at.UnixNano() {
							w.Parent = wait
						}
					}
				}
			case "released":
				if from, ok := holdStart[resource]; ok {
					put(spanHeld, resource, inRunner, from, at)
					delete(holdStart, resource)
				}
				if firstReleased.IsZero() {
					firstReleased = at
				}
			}
		case "workflow":
			// "task <id> <status>"
			fields := strings.Fields(ev.Message)
			if len(fields) != 3 {
				continue
			}
			if fields[2] == "running" {
				taskStart[fields[1]] = at
			} else if from, ok := taskStart[fields[1]]; ok {
				put(spanTask+fields[1], "", inRunner, from, at)
				delete(taskStart, fields[1])
			}
		case "measured":
			if from, ok := taskStart["D"]; ok {
				put(spanAcquire, "", inRunner, from, at)
			}
			measured = at
		case "done", "failed", "cancelled":
			put(spanSSELag, "", root, at, rec.verdict)
			if !measured.IsZero() {
				put(spanMeasured, "", inRunner, measured, at)
			}
			if !firstReleased.IsZero() {
				put(spanPostLease, "", inRunner, firstReleased, at)
			}
		}
	}
}

// setSelfTimes fills in every span's self time: its duration minus the
// union of its children's intervals, each clipped to the span.
func setSelfTimes(spans []span) {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		covered := utilisation(children[s.ID], s.Start, s.End) * float64(s.End-s.Start)
		s.Self = s.End - s.Start - int64(covered+0.5)
	}
}

// writeSpans writes the spans as JSON lines, ordered by job then start.
func writeSpans(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Job != sorted[j].Job {
			return sorted[i].Job < sorted[j].Job
		}
		return sorted[i].Start < sorted[j].Start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
