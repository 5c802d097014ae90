package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ice/internal/sched/health"
	"ice/internal/telemetry"
	"ice/internal/trace"
)

// Runner executes one admitted job against the lab. The scheduler
// hands it a cancellable context (cancelled on Cancel/Stop/Kill), a
// snapshot of the job (Resumed/Attempts tell a restarted daemon to
// pick up the workflow journal instead of starting over), and an emit
// callback for progress events. It returns the job's JSON result.
type Runner interface {
	Run(ctx context.Context, job Job, emit func(eventType, message string)) (json.RawMessage, error)
}

// RunnerFunc adapts a function to Runner.
type RunnerFunc func(ctx context.Context, job Job, emit func(eventType, message string)) (json.RawMessage, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	return f(ctx, job, emit)
}

// Config parameterises a Scheduler. The zero value of every field is
// a usable default.
type Config struct {
	// Dir is the gateway state directory: the job WAL plus per-job
	// workflow journals live here. Required.
	Dir string
	// QueueCapacity bounds queued jobs across all tenants (default 64).
	// At capacity, submissions are rejected with a retry-after.
	QueueCapacity int
	// RetryAfter is the back-off hint attached to full-queue
	// rejections (default 2s).
	RetryAfter time.Duration
	// Workers is how many jobs may run concurrently (default 2 — one
	// tenant's WAN retrieval and analysis overlap the next tenant's
	// instrument time, serialised by the lease manager).
	Workers int
	// LeaseTTL is the instrument lease duration (default 10s).
	LeaseTTL time.Duration
	// DefaultLimits apply to tenants absent from Tenants.
	DefaultLimits TenantLimits
	// Tenants carries per-tenant overrides (weights, quotas, rates).
	Tenants map[string]TenantLimits
	// Metrics receives the gateway's QoS series (optional).
	Metrics *telemetry.Collector
	// Tracer records the scheduler's distributed traces. Left nil, New
	// installs one with a bounded in-memory store and flight recorder,
	// so GET /v1/traces works out of the box.
	Tracer *trace.Tracer
	// IDPrefix namespaces job IDs (default "j", yielding "j-000042").
	// A federated cluster node sets its facility name here, so IDs are
	// collision-free fleet-wide and any gateway can route a status
	// query from the ID alone.
	IDPrefix string
	// WALCommitWindow widens WAL group-commit batches: each fsync
	// waits this long for more records. Zero fsyncs immediately (still
	// batching whatever arrived while the previous fsync ran).
	WALCommitWindow time.Duration
	// WALMirror, when set, replicates every WAL record to the
	// cluster's peer(s): it runs after the record is durable locally
	// and before the append is acknowledged.
	WALMirror func(WALRecord) error
	// Health configures instrument health supervision: circuit
	// breakers, probes, quarantine-aware dispatch, checkpoint-requeue,
	// and deadline admission. The zero value enables it with defaults;
	// set Health.Disabled for the pre-health behaviour.
	Health HealthConfig
}

// jobEntry is the scheduler's in-memory record of one job: its state,
// its event log, and any live SSE subscribers.
type jobEntry struct {
	job    Job
	events []Event
	subs   []chan Event
	// span is the job's root trace span, open from admission (or WAL
	// re-enqueue) until the terminal transition.
	span *trace.Span
	// queued covers the fair-share queue wait: admission to dispatch.
	queued *trace.Span
	// cancelRequested distinguishes a user Cancel from a failure when
	// the runner returns a context error.
	cancelRequested bool
	// requeueRequested marks a running job cut down by an instrument
	// quarantine: its terminal transition is a checkpoint-requeue, not
	// a failure.
	requeueRequested bool
	// resources are the instruments assigned at dispatch (one healthy
	// instance per class); a quarantine of any of them cuts the job.
	resources []string
}

// Scheduler is the multi-tenant experiment scheduler: admission
// control in front, fair-share queue in the middle, lease-guarded
// execution behind, everything journaled through the WAL.
type Scheduler struct {
	cfg     Config
	runner  Runner
	queue   *fairQueue
	leases  *Leases
	wal     *WAL
	limiter *rateLimiter
	metrics *telemetry.Collector
	tracer  *trace.Tracer

	mu   sync.Mutex
	jobs map[string]*jobEntry
	// live counts each tenant's non-terminal entries in jobs: the number
	// the MaxOutstanding quota bounds. It moves only where an entry
	// enters the table non-terminal (WAL replay, Submit, Adopt), is
	// rolled back out of it, or turns terminal (complete) — so admission
	// never has to walk the job history.
	live      map[string]int
	cancels   map[string]context.CancelFunc
	recovered []*Job
	nextSeq   int
	started   bool
	stopped   bool

	// health is the instrument supervisor (nil when disabled);
	// healthSpan is the long-lived trace span carrying probe and
	// quarantine events; fence is the abort hook fired on quarantine.
	health     *health.Supervisor
	healthSpan *trace.Span
	fence      func(ctx context.Context, resource string)

	// stopCh unblocks workers parked in the dispatch-wait loop (all
	// capable instruments quarantined) when the scheduler shuts down.
	stopCh   chan struct{}
	stopOnce sync.Once

	killed atomic.Bool
	wg     sync.WaitGroup
}

// New opens (or creates) the job store under cfg.Dir and replays it:
// terminal jobs become queryable history, while PENDING and RUNNING
// jobs are staged for re-enqueue when Start runs. Attach a Runner
// with SetRunner before Start.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("sched: config needs a state dir")
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewCollector()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.New(
			trace.WithStore(trace.NewStore(0, 0)),
			trace.WithRecorder(trace.NewRecorder(512)),
		)
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "j"
	}
	wal, replayed, err := OpenWAL(cfg.Dir)
	if err != nil {
		return nil, err
	}
	wal.SetCommitWindow(cfg.WALCommitWindow)
	wal.SetMirror(cfg.WALMirror)
	s := &Scheduler{
		cfg:     cfg,
		queue:   newFairQueue(cfg.QueueCapacity),
		leases:  NewLeases(cfg.LeaseTTL),
		wal:     wal,
		limiter: newRateLimiter(nil),
		metrics: cfg.Metrics,
		tracer:  cfg.Tracer,
		jobs:    make(map[string]*jobEntry),
		live:    make(map[string]int),
		cancels: make(map[string]context.CancelFunc),
		stopCh:  make(chan struct{}),
	}
	s.leases.SetMetrics(s.metrics)
	s.initHealth()
	s.nextSeq = highestJobSeq(replayed)
	sortJobsBySubmission(replayed)
	for _, job := range replayed {
		entry := &jobEntry{job: *job}
		s.jobs[job.ID] = entry
		if job.State.Terminal() {
			continue
		}
		// An interrupted job: PENDING never started, RUNNING was cut
		// down mid-flight. Both re-enqueue; RUNNING ones resume through
		// their workflow journal.
		entry.job.Resumed = entry.job.State == StateRunning
		entry.job.State = StatePending
		s.live[job.Tenant]++
		s.recovered = append(s.recovered, &entry.job)
	}
	return s, nil
}

// SetRunner attaches the job executor. Must be called before Start.
func (s *Scheduler) SetRunner(r Runner) { s.runner = r }

// Leases returns the instrument lease manager (runners install it as
// their campaign gate; the gateway serves it at /v1/leases).
func (s *Scheduler) Leases() *Leases { return s.leases }

// Metrics returns the scheduler's QoS collector.
func (s *Scheduler) Metrics() *telemetry.Collector { return s.metrics }

// Tracer returns the scheduler's tracer (the gateway serves its store
// at /v1/traces).
func (s *Scheduler) Tracer() *trace.Tracer { return s.tracer }

// Dir returns the state directory (runners keep workflow journals
// there).
func (s *Scheduler) Dir() string { return s.cfg.Dir }

// WAL returns the job store; a cluster node stamps leadership terms
// and reads sequence positions through it.
func (s *Scheduler) WAL() *WAL { return s.wal }

// Recovered snapshots the WAL-replayed non-terminal jobs staged for
// re-enqueue (valid between New and Start). A cluster node inspects
// them at join time: jobs a peer already adopted are Disowned instead
// of re-enqueued, so a job never runs at two facilities.
func (s *Scheduler) Recovered() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.recovered))
	for _, j := range s.recovered {
		out = append(out, *j)
	}
	return out
}

// Disown drops a staged recovered job from the re-enqueue list (it
// stays queryable with its replayed state). Must be called between
// New and Start.
func (s *Scheduler) Disown(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, j := range s.recovered {
		if j.ID == id {
			s.recovered = append(s.recovered[:i], s.recovered[i+1:]...)
			return true
		}
	}
	return false
}

// Adopt enqueues a foreign job reconstructed from a replicated peer
// WAL after that peer's gateway died. The job keeps its identity —
// ID, trace, tenant, attempt count — so its spans stitch into the
// original trace and its workflow journal (installed into Dir by the
// caller) resumes it exactly once. A job that had begun running on
// the dead peer resumes; a queued one starts fresh.
func (s *Scheduler) Adopt(job Job) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	if !s.started {
		s.mu.Unlock()
		return fmt.Errorf("sched: adopt before start")
	}
	if _, dup := s.jobs[job.ID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("sched: job %s already known", job.ID)
	}
	job.Resumed = job.Resumed || job.State == StateRunning
	job.State = StatePending
	entry := &jobEntry{job: job}
	s.jobs[job.ID] = entry
	s.live[job.Tenant]++
	s.mu.Unlock()

	// Re-root into the job's persisted trace and mark the handoff: the
	// stitched trace shows the crashed attempt and the adopted resume
	// as one story, joined by the failover event.
	span := s.rootSpan(&entry.job)
	span.SetAttr("adopted", "true")
	span.Event("cluster.failover", "job", job.ID)
	queued := s.queuedSpan(span)
	s.mu.Lock()
	entry.span, entry.queued = span, queued
	snapshot := entry.job
	s.mu.Unlock()

	limits := s.tenantLimits(snapshot.Tenant)
	if !s.queue.Push(&entry.job, limits.weight()) {
		s.mu.Lock()
		s.dropLocked(&snapshot)
		s.mu.Unlock()
		queued.End()
		span.EndErr(fmt.Errorf("adoption rejected: queue full"))
		return &Busy{Reason: "queue full", RetryAfter: s.cfg.RetryAfter}
	}
	s.metrics.Gauge("sched.queue.depth").Inc()
	s.metrics.Counter("sched.jobs.adopted").Inc()
	s.emit(snapshot.ID, "adopted", fmt.Sprintf("adopted from failed peer gateway (attempt %d begun before crash)", snapshot.Attempts))
	return s.wal.Append(WALRecord{
		Job:     snapshot.ID,
		Tenant:  snapshot.Tenant,
		State:   StatePending,
		Spec:    &snapshot.Spec,
		TraceID: snapshot.TraceID,
		Attempt: snapshot.Attempts,
	})
}

// Start launches the worker pool and re-enqueues jobs recovered from
// the WAL.
func (s *Scheduler) Start() error {
	s.mu.Lock()
	if s.started || s.stopped {
		s.mu.Unlock()
		return fmt.Errorf("sched: scheduler already started or stopped")
	}
	if s.runner == nil {
		s.mu.Unlock()
		return fmt.Errorf("sched: no runner attached")
	}
	s.started = true
	recovered := s.recovered
	s.recovered = nil
	s.mu.Unlock()

	for _, job := range recovered {
		limits := s.tenantLimits(job.Tenant)
		// Re-root the recovered job into the trace ID persisted in the
		// WAL: the new incarnation's spans land next to the crashed
		// attempt's, stitching the trace across the restart.
		span := s.rootSpan(job)
		span.SetAttr("recovered", "true")
		queued := s.queuedSpan(span)
		s.mu.Lock()
		if e, ok := s.jobs[job.ID]; ok {
			e.span, e.queued = span, queued
		}
		s.mu.Unlock()
		if !s.queue.Push(job, limits.weight()) {
			// Can only happen if the WAL holds more live jobs than the
			// (shrunken) queue capacity; keep the job visible as FAILED
			// rather than silently dropping it.
			s.completeOrphan(job.ID, "recovered job exceeds queue capacity")
			continue
		}
		s.metrics.Gauge("sched.queue.depth").Inc()
		s.metrics.Counter("sched.jobs.recovered").Inc()
		if job.Resumed {
			s.emit(job.ID, "resumed", fmt.Sprintf("re-enqueued after daemon restart (attempt %d begun before crash)", job.Attempts))
		} else {
			s.emit(job.ID, "queued", "re-enqueued after daemon restart")
		}
		// Journal the re-enqueue so a second crash replays the same way.
		s.wal.Append(WALRecord{Job: job.ID, State: StatePending, Attempt: job.Attempts, TraceID: job.TraceID})
	}
	if s.health != nil {
		// The health span is a trace of its own: probe outcomes and
		// quarantine transitions land here (job-affecting transitions
		// are mirrored onto the affected jobs' root spans).
		span := s.tracer.StartTrace("", "instrument.health", trace.ClassInstrument)
		s.mu.Lock()
		s.healthSpan = span
		s.mu.Unlock()
		s.health.Start()
	}
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return nil
}

// Submit runs admission control and enqueues the job: spec validation,
// per-tenant quota, token-bucket rate limit, then bounded queue push.
// Rejections for load return *Busy so the gateway can answer 429 with
// Retry-After instead of blocking the intake.
func (s *Scheduler) Submit(spec JobSpec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	// An unmeetable deadline bounces at the door instead of occupying
	// a lease to certainly fail. This is admission policy, not
	// supervision: it holds even with the probe loop disabled.
	if min := s.cfg.Health.MinDeadline; spec.DeadlineMS > 0 && min > 0 &&
		time.Duration(spec.DeadlineMS)*time.Millisecond < min {
		s.metrics.Counter("sched.jobs.rejected.deadline").Inc()
		return Job{}, &Unavailable{
			Reason:     fmt.Sprintf("deadline %dms below this facility's minimum %v", spec.DeadlineMS, min),
			RetryAfter: s.cfg.RetryAfter,
			Permanent:  true,
		}
	}
	if s.healthApplies(spec) {
		h := s.cfg.Health
		// When every instance of some capable class is quarantined the
		// job cannot start; tell the submitter to come back after the
		// cool-down (or go to another facility).
		if _, blocked, ok := s.assignInstruments(spec); !ok {
			s.metrics.Counter("sched.jobs.rejected.quarantine").Inc()
			retry := h.OpenFor
			if retry < s.cfg.RetryAfter {
				retry = s.cfg.RetryAfter
			}
			return Job{}, &Unavailable{
				Reason:     fmt.Sprintf("every %s instrument is quarantined", blocked),
				RetryAfter: retry,
			}
		}
	}
	// One critical section takes the job from nothing to admitted:
	// quota, rate limit, ID and table entry. The quota slot is taken
	// where it is checked, so concurrent submits of one tenant cannot
	// both pass MaxOutstanding; every rejection below gives it back.
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return Job{}, ErrStopped
	}
	limits := s.tenantLimitsLocked(spec.Tenant)
	if outstanding := s.live[spec.Tenant]; outstanding >= limits.maxOutstanding() {
		s.mu.Unlock()
		s.metrics.Counter("sched.jobs.rejected.quota").Inc()
		return Job{}, &Busy{Reason: fmt.Sprintf("tenant quota (%d outstanding jobs)", outstanding), RetryAfter: s.cfg.RetryAfter}
	}
	// A rate token is spent only once the quota has passed.
	if ok, retryAfter := s.limiter.take(spec.Tenant, limits); !ok {
		s.mu.Unlock()
		s.metrics.Counter("sched.jobs.rejected.rate").Inc()
		if retryAfter < time.Second {
			retryAfter = time.Second
		}
		return Job{}, &Busy{Reason: "rate limit", RetryAfter: retryAfter}
	}
	s.nextSeq++
	entry := &jobEntry{job: Job{
		ID:                fmt.Sprintf("%s-%06d", s.cfg.IDPrefix, s.nextSeq),
		Tenant:            spec.Tenant,
		Spec:              spec,
		State:             StatePending,
		SubmittedUnixNano: time.Now().UnixNano(),
	}}
	s.jobs[entry.job.ID] = entry
	s.live[spec.Tenant]++
	job := entry.job
	s.mu.Unlock()

	// The job's root span opens at admission and ends at the terminal
	// transition; its trace ID is returned to the submitter and survives
	// in the WAL, so the whole lifecycle — across daemon restarts — is
	// one trace. The spans open outside the lock (the tracer has locks
	// of its own) and are attached before the queue can hand the job to
	// a worker.
	span := s.rootSpan(&job)
	queued := s.queuedSpan(span)
	s.mu.Lock()
	entry.job.TraceID = job.TraceID
	entry.span, entry.queued = span, queued
	s.mu.Unlock()

	reject := func() {
		s.mu.Lock()
		s.dropLocked(&job)
		s.mu.Unlock()
		queued.End()
		span.EndErr(fmt.Errorf("rejected at admission"))
	}
	if !s.queue.Push(&entry.job, limits.weight()) {
		reject()
		s.metrics.Counter("sched.jobs.rejected.full").Inc()
		return Job{}, &Busy{Reason: fmt.Sprintf("queue full (%d jobs)", s.cfg.QueueCapacity), RetryAfter: s.cfg.RetryAfter}
	}
	s.metrics.Gauge("sched.queue.depth").Inc()
	s.metrics.Counter("sched.jobs.submitted").Inc()
	// The fsynced PENDING record makes the admission durable: after
	// this append, a crashed daemon re-enqueues the job on restart.
	if err := s.wal.Append(WALRecord{Job: job.ID, Tenant: job.Tenant, State: StatePending, Spec: &spec, TraceID: job.TraceID}); err != nil {
		s.queue.Remove(job.ID)
		s.metrics.Gauge("sched.queue.depth").Dec()
		reject()
		return Job{}, err
	}
	s.emit(job.ID, "queued", fmt.Sprintf("admitted %s job for tenant %s", spec.Kind, spec.Tenant))
	return job, nil
}

// Cancel stops a job: queued jobs are dropped before dispatch, running
// jobs have their context cancelled and finish as CANCELLED.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	entry, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	if entry.job.State.Terminal() {
		s.mu.Unlock()
		return nil
	}
	entry.cancelRequested = true
	cancel := s.cancels[id]
	s.mu.Unlock()

	if cancel != nil {
		cancel() // running: the runner unwinds, completion records CANCELLED
		return nil
	}
	if s.queue.Remove(id) {
		s.metrics.Gauge("sched.queue.depth").Dec()
		s.complete(id, StateCancelled, nil, nil)
	}
	return nil
}

// Job returns a snapshot of the job's current state.
func (s *Scheduler) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return entry.job, true
}

// Jobs lists all known jobs, newest last.
func (s *Scheduler) Jobs() []Job { return s.TenantJobs("") }

// TenantJobs lists one tenant's jobs, newest last ("" lists every
// tenant's). The filter runs before the copy, so a listing copies and
// sorts only the jobs it returns.
func (s *Scheduler) TenantJobs(tenant string) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []Job{} // never nil: the gateway lists "jobs": [], not null
	if tenant == "" {
		out = make([]Job, 0, len(s.jobs))
	}
	for _, e := range s.jobs {
		if tenant == "" || e.job.Tenant == tenant {
			out = append(out, e.job)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Events returns the job's event log so far plus a live subscription
// for what follows; the channel closes when the job reaches a
// terminal state. Call the returned cancel func to unsubscribe early.
func (s *Scheduler) Events(id string) ([]Event, <-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.jobs[id]
	if !ok {
		return nil, nil, nil, ErrUnknownJob
	}
	past := append([]Event(nil), entry.events...)
	if entry.job.State.Terminal() {
		ch := make(chan Event)
		close(ch)
		return past, ch, func() {}, nil
	}
	ch := make(chan Event, 256)
	entry.subs = append(entry.subs, ch)
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, sub := range entry.subs {
			if sub == ch {
				entry.subs = append(entry.subs[:i], entry.subs[i+1:]...)
				return
			}
		}
	}
	return past, ch, cancel, nil
}

// WaitTerminal blocks until the job reaches a terminal state.
func (s *Scheduler) WaitTerminal(ctx context.Context, id string) (Job, error) {
	_, ch, cancel, err := s.Events(id)
	if err != nil {
		return Job{}, err
	}
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			return Job{}, ctx.Err()
		case _, ok := <-ch:
			if !ok {
				job, _ := s.Job(id)
				return job, nil
			}
		}
	}
}

// Stop refuses new submissions, cancels running jobs, and waits for
// the workers. Queued jobs stay PENDING in the WAL and re-enqueue on
// the next start.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	cancels := make([]context.CancelFunc, 0, len(s.cancels))
	for _, c := range s.cancels {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	s.queue.Close()
	s.stopOnce.Do(func() { close(s.stopCh) })
	for _, c := range cancels {
		c()
	}
	s.wg.Wait()
	s.stopHealth()
	s.leases.Close()
	s.wal.Close()
	s.sweepSpans(nil)
}

// stopHealth halts the probe loop and closes the health span.
func (s *Scheduler) stopHealth() {
	if s.health == nil {
		return
	}
	s.health.Stop()
	s.mu.Lock()
	span := s.healthSpan
	s.healthSpan = nil
	s.mu.Unlock()
	span.End()
}

// Kill simulates a crash (kill -9) for recovery drills: in-flight
// work is abandoned without completion records or events — the WAL
// keeps whatever was fsynced before the "power went out", exactly the
// state a restarted daemon must recover from. The in-process lab the
// job was driving does get its context cancelled, standing in for the
// instrument commands that stop arriving when the real process dies.
func (s *Scheduler) Kill() {
	s.killed.Store(true)
	s.mu.Lock()
	s.stopped = true
	cancels := make([]context.CancelFunc, 0, len(s.cancels))
	for _, c := range s.cancels {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	s.queue.Close()
	s.stopOnce.Do(func() { close(s.stopCh) })
	for _, c := range cancels {
		c()
	}
	s.wg.Wait()
	s.stopHealth()
	s.leases.Close()
	s.wal.Close()
	s.sweepSpans(errors.New("daemon killed"))
}

// sweepSpans closes any still-open job spans at shutdown. A real
// crash would simply lose them; the in-process drills share one
// tracer with the next incarnation, so dangling parents here would
// show up as orphans in the stitched trace.
func (s *Scheduler) sweepSpans(cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.jobs {
		e.queued.End()
		if cause != nil {
			e.span.EndErr(cause)
		} else {
			e.span.End()
		}
		e.span, e.queued = nil, nil
	}
}

// worker pulls fair-share winners off the queue until it closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob drives one job through RUNNING to a terminal state (or a
// checkpoint-requeue back to PENDING when an instrument quarantine or
// transient failure cut it down with retry budget left).
func (s *Scheduler) runJob(job *Job) {
	s.mu.Lock()
	entry, ok := s.jobs[job.ID]
	if !ok || entry.job.State.Terminal() {
		s.mu.Unlock()
		return // cancelled between Pop and here
	}
	pre := entry.job
	s.mu.Unlock()

	gated := s.healthApplies(pre.Spec)
	deadline, hasDeadline := jobDeadline(&pre)

	// Health gating before dispatch: hold the job while every instance
	// of some capable class is quarantined, routing to a healthy
	// equivalent the moment one exists.
	var resources []string
	if gated {
		var proceed bool
		resources, proceed = s.waitForInstruments(&pre, deadline, hasDeadline)
		if !proceed {
			return // stopped (job stays PENDING in the WAL), failed on deadline, or cancelled
		}
	}
	// A deadline that exhausted in the queue fails before a lease is
	// ever taken.
	if hasDeadline && !time.Now().Before(deadline) {
		s.complete(job.ID, StateFailed, nil, fmt.Errorf("deadline exhausted before dispatch (%dms budget)", pre.Spec.DeadlineMS))
		return
	}

	baseCtx := context.Background()
	var cancelDeadline context.CancelFunc = func() {}
	if hasDeadline {
		baseCtx, cancelDeadline = context.WithDeadline(baseCtx, deadline)
	}
	defer cancelDeadline()
	ctx, cancel := context.WithCancel(baseCtx)
	defer cancel()

	s.mu.Lock()
	if entry.job.State.Terminal() {
		s.mu.Unlock()
		return
	}
	entry.job.State = StateRunning
	entry.job.Attempts++
	entry.job.StartedUnixNano = time.Now().UnixNano()
	entry.job.Resources = resources
	entry.resources = resources
	entry.requeueRequested = false
	s.cancels[job.ID] = cancel
	snapshot := entry.job
	rootSpan, queued := entry.span, entry.queued
	entry.queued = nil
	s.mu.Unlock()

	queued.End()
	s.metrics.Gauge("sched.queue.depth").Dec()
	s.metrics.Gauge("sched.jobs.running").Inc()
	s.wal.Append(WALRecord{Job: snapshot.ID, State: StateRunning, Attempt: snapshot.Attempts})
	if snapshot.Resumed {
		s.emit(snapshot.ID, "started", fmt.Sprintf("resuming (attempt %d)", snapshot.Attempts))
	} else {
		s.emit(snapshot.ID, "started", fmt.Sprintf("dispatched to worker (attempt %d)", snapshot.Attempts))
	}

	// The run span carries the attempt; the runner's context carries it
	// downstream, so every task, lease, RPC and retrieval span in this
	// attempt parents under it.
	runCtx, runSpan := trace.Start(trace.ContextWithSpan(ctx, rootSpan), "sched.run", trace.ClassSched)
	runSpan.SetAttr("attempt", fmt.Sprintf("%d", snapshot.Attempts))
	result, err := s.runner.Run(runCtx, snapshot, func(eventType, message string) {
		if s.killed.Load() {
			return
		}
		s.emit(snapshot.ID, eventType, message)
	})
	runSpan.EndErr(err)

	s.metrics.Gauge("sched.jobs.running").Dec()
	if s.killed.Load() {
		return // crashed: no completion record — the WAL says RUNNING
	}
	s.mu.Lock()
	cancelled := entry.cancelRequested
	stopped := s.stopped
	delete(s.cancels, job.ID)
	s.mu.Unlock()

	if gated && err == nil {
		for _, res := range resources {
			s.health.ReportSuccess(res)
		}
	}

	switch {
	case err == nil:
		s.finishRun(entry)
		s.complete(job.ID, StateDone, result, nil)
	case cancelled && errors.Is(err, context.Canceled):
		s.finishRun(entry)
		s.complete(job.ID, StateCancelled, nil, err)
	default:
		deadlinePast := hasDeadline && !time.Now().Before(deadline)
		cls := health.ClassWorkload
		switch {
		case errors.Is(err, ErrUnknownJobKind):
			// A kind no runner path handles is a workload fault by
			// definition: count it and keep the instruments' health
			// record out of it — retrying cannot help, so the default
			// workload class below also guarantees no requeue.
			s.metrics.Counter("sched.jobs.rejected.unknown_type").Inc()
		case gated:
			cls = s.reportRunError(resources, err, deadlinePast)
		}
		// finishRun comes after reportRunError on purpose: a wedge
		// report runs the quarantine cut-down synchronously, and the
		// job must still be attributable (entry.resources set) so the
		// cut-down lands the instrument.quarantine event on its span
		// and marks the requeue intent finishRun collects.
		requeueRequested := s.finishRun(entry)
		// Checkpoint-requeue rather than fail when the evidence points
		// at the facility (quarantine cut-down, sick instrument, flaky
		// transport) and the job still has retry budget and time.
		retriable := requeueRequested || cls == health.ClassInstrument || cls == health.ClassTransport
		if gated && retriable && !stopped && !deadlinePast &&
			snapshot.Attempts < 1+s.cfg.Health.RetryBudget {
			if s.requeueJob(entry, err) {
				return
			}
		}
		if deadlinePast && errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("deadline exceeded (%dms end-to-end budget): %w", snapshot.Spec.DeadlineMS, err)
		}
		s.complete(job.ID, StateFailed, nil, err)
	}
}

// finishRun retires the attempt's instrument attribution: it clears
// entry.resources and collects the requeue intent, whether it was set
// by a mid-run quarantine cut-down or by the breaker opening on this
// attempt's own run error.
func (s *Scheduler) finishRun(entry *jobEntry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	requeueRequested := entry.requeueRequested
	entry.requeueRequested = false
	entry.resources = nil
	return requeueRequested
}

// waitForInstruments parks the worker until every resource class
// offers a healthy instance. It returns proceed=false when the job
// should not run: the scheduler stopped (the popped job keeps its
// PENDING WAL record and re-enqueues next start), its deadline
// exhausted, or it was cancelled while held.
func (s *Scheduler) waitForInstruments(job *Job, deadline time.Time, hasDeadline bool) ([]string, bool) {
	warned := false
	for {
		if res, blocked, ok := s.assignInstruments(job.Spec); ok {
			return res, true
		} else if !warned {
			warned = true
			s.metrics.Counter("sched.dispatch.held").Inc()
			s.emit(job.ID, "waiting", fmt.Sprintf("dispatch held: every %s instrument is quarantined", blocked))
		}
		s.mu.Lock()
		cancelled := false
		if e, ok := s.jobs[job.ID]; ok {
			if e.job.State.Terminal() {
				s.mu.Unlock()
				return nil, false
			}
			cancelled = e.cancelRequested
		}
		s.mu.Unlock()
		if cancelled {
			s.complete(job.ID, StateCancelled, nil, nil)
			return nil, false
		}
		if hasDeadline && !time.Now().Before(deadline) {
			s.complete(job.ID, StateFailed, nil, fmt.Errorf("deadline exhausted while every capable instrument was quarantined (%dms budget)", job.Spec.DeadlineMS))
			return nil, false
		}
		changed := s.health.Changed()
		timer := time.NewTimer(250 * time.Millisecond)
		select {
		case <-s.stopCh:
			timer.Stop()
			return nil, false
		case <-changed:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// requeueJob returns a cut-down job to the queue: state back to
// PENDING with Resumed set (the runner restores the workflow journal,
// so completed tasks are not re-run), a fresh queued span under the
// same root, and a durable PENDING record. Returns false when the
// requeue could not happen and the caller should fail the job instead.
func (s *Scheduler) requeueJob(entry *jobEntry, cause error) bool {
	s.mu.Lock()
	if entry.job.State.Terminal() {
		s.mu.Unlock()
		return false
	}
	entry.job.State = StatePending
	entry.job.Resumed = true
	entry.job.Resources = nil
	snapshot := entry.job
	root := entry.span
	s.mu.Unlock()

	root.Event("sched.requeue", "cause", cause.Error())
	queued := s.queuedSpan(root)
	s.mu.Lock()
	entry.queued = queued
	s.mu.Unlock()

	limits := s.tenantLimits(snapshot.Tenant)
	if !s.queue.Push(&entry.job, limits.weight()) {
		// Queue closed (shutdown) or full. At shutdown, journal the
		// PENDING state so the next incarnation resumes the checkpoint.
		s.mu.Lock()
		stopped := s.stopped
		entry.queued = nil
		s.mu.Unlock()
		queued.End()
		if stopped {
			s.wal.Append(WALRecord{Job: snapshot.ID, State: StatePending, Attempt: snapshot.Attempts, TraceID: snapshot.TraceID})
			return true
		}
		return false
	}
	s.metrics.Gauge("sched.queue.depth").Inc()
	s.metrics.Counter("sched.jobs.requeued").Inc()
	s.wal.Append(WALRecord{Job: snapshot.ID, State: StatePending, Attempt: snapshot.Attempts, TraceID: snapshot.TraceID})
	s.emit(snapshot.ID, "requeued", fmt.Sprintf("checkpoint-requeued after attempt %d: %v", snapshot.Attempts, cause))
	return true
}

// complete records a terminal transition. The WAL record goes first;
// then one critical section sets the state, frees the tenant's quota
// slot, appends the terminal event and detaches the subscribers — so a
// reader that sees a terminal state also sees its terminal event, and
// a subscriber is either handed that event live or finds it in the
// backlog. Span close-out, counters, fan-out and channel close follow
// outside the lock.
func (s *Scheduler) complete(id string, state State, result json.RawMessage, cause error) {
	rec := WALRecord{Job: id, State: state, Result: result}
	if cause != nil && state == StateFailed {
		rec.Error = cause.Error()
	}
	s.wal.Append(rec)

	counter, eventType, message := "sched.jobs.done", "done", "job complete"
	switch state {
	case StateFailed:
		counter, eventType, message = "sched.jobs.failed", "failed", rec.Error
	case StateCancelled:
		counter, eventType, message = "sched.jobs.cancelled", "cancelled", "job cancelled"
	}

	s.mu.Lock()
	entry, ok := s.jobs[id]
	if !ok {
		// The admission was rolled back (its PENDING record failed to
		// commit) after a worker had already taken the job.
		s.mu.Unlock()
		return
	}
	if !entry.job.State.Terminal() {
		s.releaseSlotLocked(entry.job.Tenant)
	}
	entry.job.State = state
	entry.job.Result = result
	entry.job.FinishedUnixNano = time.Now().UnixNano()
	if rec.Error != "" {
		entry.job.Error = rec.Error
	}
	ev := entry.appendEvent(id, eventType, message)
	span, queued := entry.span, entry.queued
	entry.span, entry.queued = nil, nil
	subs := entry.subs
	entry.subs = nil
	s.mu.Unlock()

	// Close out the trace: the queue-wait child first (still open when
	// a job dies queued), then the root with the terminal state.
	queued.End()
	span.SetAttr("state", string(state))
	if state == StateFailed {
		span.EndErr(cause)
	} else {
		span.End()
	}
	s.metrics.Counter(counter).Inc()

	// The detached channels are this goroutine's alone now: emit sends
	// under the lock and only to attached subscribers.
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
}

// completeOrphan fails a recovered job that could not re-enqueue.
func (s *Scheduler) completeOrphan(id, reason string) {
	s.complete(id, StateFailed, nil, fmt.Errorf("%s", reason))
}

// emit appends an event to the job's log and fans it out to
// subscribers (non-blocking: a stalled SSE client drops events rather
// than stalling the lab). The sends happen under the lock, so they can
// never reach a channel complete has detached and closed.
func (s *Scheduler) emit(id, eventType, message string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.jobs[id]
	if !ok {
		return
	}
	ev := entry.appendEvent(id, eventType, message)
	for _, ch := range entry.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// appendEvent stamps the next event of the job's stream and adds it to
// the log. Caller holds the scheduler's lock.
func (e *jobEntry) appendEvent(id, eventType, message string) Event {
	ev := Event{
		Seq:          len(e.events) + 1,
		TimeUnixNano: time.Now().UnixNano(),
		Job:          id,
		Type:         eventType,
		Message:      message,
	}
	e.events = append(e.events, ev)
	return ev
}

// rootSpan opens the job's root span and stamps the job with its
// trace ID (reusing an ID a previous daemon incarnation persisted in
// the WAL, so recovered attempts share the original trace).
func (s *Scheduler) rootSpan(job *Job) *trace.Span {
	span := s.tracer.StartTrace(job.TraceID, "job "+job.ID, trace.ClassSched)
	span.SetAttr("job", job.ID)
	span.SetAttr("tenant", job.Tenant)
	span.SetAttr("kind", string(job.Spec.Kind))
	if id := span.TraceID(); id != "" {
		job.TraceID = id
	}
	return span
}

// queuedSpan opens the queue-wait child under the job's root span; it
// ends when a worker dispatches (or the job dies queued).
func (s *Scheduler) queuedSpan(root *trace.Span) *trace.Span {
	_, queued := trace.Start(trace.ContextWithSpan(context.Background(), root), "sched.queued", trace.ClassSched)
	return queued
}

// dropLocked rolls an admission back: the entry leaves the job table
// and its tenant gets the quota slot back. Caller holds s.mu.
func (s *Scheduler) dropLocked(job *Job) {
	delete(s.jobs, job.ID)
	s.releaseSlotLocked(job.Tenant)
}

// releaseSlotLocked returns one of the tenant's live-job slots; an
// idle tenant leaves no entry behind. Caller holds s.mu.
func (s *Scheduler) releaseSlotLocked(tenant string) {
	if s.live[tenant]--; s.live[tenant] == 0 {
		delete(s.live, tenant)
	}
}

// tenantLimits resolves a tenant's limits outside the lock.
func (s *Scheduler) tenantLimits(tenant string) TenantLimits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantLimitsLocked(tenant)
}

func (s *Scheduler) tenantLimitsLocked(tenant string) TenantLimits {
	if l, ok := s.cfg.Tenants[tenant]; ok {
		return l
	}
	return s.cfg.DefaultLimits
}
