package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"ice/internal/sched/health"
)

// HealthConfig wires the instrument health supervisor into the
// scheduler: per-instrument circuit breakers, a background probe loop,
// quarantine-aware dispatch, checkpoint-requeue of jobs cut down by a
// quarantine, and deadline admission.
type HealthConfig struct {
	// Disabled turns the supervisor off entirely (no probes, no
	// quarantine, no requeue) — the pre-health scheduler behaviour.
	Disabled bool
	// ProbeInterval paces the background status probes (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe (default 500ms) — the deadline is
	// the hang detector.
	ProbeTimeout time.Duration
	// FailureThreshold consecutive instrument-class failures open a
	// breaker (default 3). Phase-budget wedges trip immediately.
	FailureThreshold int
	// OpenFor is the quarantine cool-down before a half-open recovery
	// probe (default 5s).
	OpenFor time.Duration
	// RetryBudget is how many extra attempts a checkpoint-requeued job
	// gets beyond its first (default 2). Exhausted budget fails the
	// job instead of requeueing forever against a flapping instrument.
	RetryBudget int
	// MinDeadline, when > 0, rejects DeadlineMS below it at admission
	// with 503 + Retry-After: a deadline no experiment can meet should
	// bounce at the door, not occupy a lease and then fail.
	MinDeadline time.Duration
	// Instruments maps a resource class to its equivalent instances
	// (default {"sp200": [sp200/ch1], "jkem": [jkem/u1]}). A job needs
	// one healthy instance of every class it uses; when a class offers
	// several, queued jobs route around a quarantined one.
	Instruments map[string][]string
	// ClassesFor, when set, narrows the resource classes a job needs
	// (default: every registered class — the single-workload
	// behaviour). A mixed facility maps cv/campaign/dag jobs to
	// {jkem, sp200} and scan jobs to {stem}, so an electrochemistry
	// tenant never leases the microscope and a quarantined column
	// never blocks a cv queue.
	ClassesFor func(JobSpec) []string
	// Applies, when set, scopes health gating to matching jobs. A
	// federated node sets it to its home facility so adopted foreign
	// jobs (driven against the peer's lab) are not gated by local
	// instrument health.
	Applies func(JobSpec) bool
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.ProbeInterval <= 0 {
		h.ProbeInterval = time.Second
	}
	if h.ProbeTimeout <= 0 {
		h.ProbeTimeout = 500 * time.Millisecond
	}
	if h.FailureThreshold <= 0 {
		h.FailureThreshold = 3
	}
	if h.OpenFor <= 0 {
		h.OpenFor = 5 * time.Second
	}
	if h.RetryBudget <= 0 {
		h.RetryBudget = 2
	}
	if len(h.Instruments) == 0 {
		h.Instruments = map[string][]string{
			"sp200": {ResourceSP200},
			"jkem":  {ResourceJKem},
		}
	}
	return h
}

// classes returns the resource classes in stable order.
func (h HealthConfig) classes() []string {
	out := make([]string, 0, len(h.Instruments))
	for c := range h.Instruments {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// initHealth builds the supervisor and wires it to the lease manager.
// Called from New; the supervisor starts with Start.
func (s *Scheduler) initHealth() {
	if s.cfg.Health.Disabled {
		return
	}
	s.cfg.Health = s.cfg.Health.withDefaults()
	h := s.cfg.Health
	s.health = health.NewSupervisor(health.Config{
		ProbeInterval: h.ProbeInterval,
		ProbeTimeout:  h.ProbeTimeout,
		Breaker: health.BreakerConfig{
			FailureThreshold: h.FailureThreshold,
			OpenFor:          h.OpenFor,
		},
		Metrics:      s.metrics,
		OnTransition: s.onHealthTransition,
		OnProbe:      s.onHealthProbe,
		Fence: func(ctx context.Context, resource string) {
			s.mu.Lock()
			fence := s.fence
			s.mu.Unlock()
			if fence != nil {
				fence(ctx, resource)
			}
		},
	})
	for _, class := range h.classes() {
		for _, res := range h.Instruments[class] {
			s.health.Register(res, nil)
		}
	}
	s.leases.SetQuarantined(s.health.Quarantined)
	s.leases.SetOnExpired(s.onLeaseExpired)
}

// Health returns the instrument health supervisor (nil when disabled).
func (s *Scheduler) Health() *health.Supervisor { return s.health }

// RegisterProber attaches a status-probe for one instrument; see
// health.Prober. Typically called by the gateway with probes built
// over the lab connector (LabProber) before Start.
func (s *Scheduler) RegisterProber(resource string, p health.Prober) {
	if s.health != nil {
		s.health.Register(resource, p)
	}
}

// SetFence installs the quarantine fence: called once (async) when a
// breaker opens, it aborts whatever the instrument is doing so a
// wedged acquisition cannot complete behind the scheduler's back and
// double-count against exactly-once accounting.
func (s *Scheduler) SetFence(fence func(ctx context.Context, resource string)) {
	s.mu.Lock()
	s.fence = fence
	s.mu.Unlock()
}

// healthApplies reports whether health gating governs this job.
func (s *Scheduler) healthApplies(spec JobSpec) bool {
	if s.health == nil {
		return false
	}
	if s.cfg.Health.Applies != nil && !s.cfg.Health.Applies(spec) {
		return false
	}
	return true
}

// assignInstruments picks one healthy instance per resource class the
// job needs (ClassesFor narrows; default every class). It returns
// ok=false with the blocking class name when some needed class has
// every instance quarantined.
func (s *Scheduler) assignInstruments(spec JobSpec) (resources []string, blockedClass string, ok bool) {
	h := s.cfg.Health
	classes := h.classes()
	if h.ClassesFor != nil {
		if narrowed := h.ClassesFor(spec); len(narrowed) > 0 {
			// Keep only classes the supervisor actually registered, in
			// stable order; unknown names are ignored rather than
			// wedging dispatch forever.
			keep := map[string]bool{}
			for _, c := range narrowed {
				keep[c] = true
			}
			var filtered []string
			for _, c := range classes {
				if keep[c] {
					filtered = append(filtered, c)
				}
			}
			classes = filtered
		}
	}
	for _, class := range classes {
		picked := ""
		for _, res := range h.Instruments[class] {
			if !s.health.Quarantined(res) {
				picked = res
				break
			}
		}
		if picked == "" {
			return nil, class, false
		}
		resources = append(resources, picked)
	}
	sort.Strings(resources)
	return resources, "", true
}

// onHealthTransition reacts to breaker state changes. Quarantine cuts
// down in-flight jobs on the instrument (checkpoint-requeue, not
// fail); recovery wakes lease waiters and dispatch-blocked workers.
// Runs outside supervisor locks.
func (s *Scheduler) onHealthTransition(t health.Transition) {
	switch t.To {
	case health.Open:
		s.healthEvent("instrument.quarantine", t.Resource, t.Cause)
		s.emitGlobal("quarantine", fmt.Sprintf("%s quarantined: %s", t.Resource, t.Cause))
		// Cut down in-flight jobs holding (or assigned) the sick
		// instrument: cancel with requeue intent so the terminal
		// handler re-enqueues from the checkpoint instead of failing.
		s.mu.Lock()
		type cut struct {
			id     string
			cancel context.CancelFunc
		}
		var cuts []cut
		for id, e := range s.jobs {
			if e.job.State != StateRunning || !containsResource(e.resources, t.Resource) {
				continue
			}
			e.requeueRequested = true
			e.span.Event("instrument.quarantine", "resource", t.Resource, "cause", t.Cause)
			if c := s.cancels[id]; c != nil {
				cuts = append(cuts, cut{id, c})
			}
		}
		s.mu.Unlock()
		for _, c := range cuts {
			s.emit(c.id, "quarantined", fmt.Sprintf("instrument %s quarantined mid-run: checkpoint-requeueing", t.Resource))
			c.cancel()
		}
	case health.Closed:
		s.healthEvent("instrument.recovered", t.Resource, t.Cause)
		s.emitGlobal("recovered", fmt.Sprintf("%s recovered: %s", t.Resource, t.Cause))
		// Mark recovery on the root spans of jobs waiting to retry on
		// this instrument, so the stitched trace tells the full story.
		s.mu.Lock()
		for _, e := range s.jobs {
			if e.job.State == StatePending && e.job.Resumed {
				e.span.Event("instrument.recovered", "resource", t.Resource)
			}
		}
		s.mu.Unlock()
		s.leases.WakeAll()
	}
}

// onHealthProbe records probe outcomes onto the health span — failures
// and recovery probes only, so a 1s probe cadence does not flood the
// trace store.
func (s *Scheduler) onHealthProbe(resource string, recovering bool, err error) {
	if err == nil && !recovering {
		return
	}
	s.mu.Lock()
	span := s.healthSpan
	s.mu.Unlock()
	if span == nil {
		return
	}
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	kind := "liveness"
	if recovering {
		kind = "recovery"
	}
	span.Event("instrument.probe", "resource", resource, "kind", kind, "outcome", outcome)
}

// healthEvent lands a quarantine/recovery event on the long-lived
// health span.
func (s *Scheduler) healthEvent(name, resource, cause string) {
	s.mu.Lock()
	span := s.healthSpan
	s.mu.Unlock()
	if span != nil {
		span.Event(name, "resource", resource, "cause", cause)
	}
}

// emitGlobal broadcasts a health event to every non-terminal job's
// stream, so SSE watchers see quarantines as they happen.
func (s *Scheduler) emitGlobal(eventType, message string) {
	s.mu.Lock()
	var ids []string
	for id, e := range s.jobs {
		if !e.job.State.Terminal() {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.emit(id, eventType, message)
	}
}

// onLeaseExpired feeds TTL revocations to the supervisor: a heartbeat
// that died while the lease was held is instrument-class evidence (the
// holder's process wedged against the instrument, or the instrument
// wedged the holder). Runs in its own goroutine (see Leases.SetOnExpired).
func (s *Scheduler) onLeaseExpired(resource, holder string) {
	if s.health == nil {
		return
	}
	s.health.ReportFailure(resource, fmt.Sprintf("lease expired while held by %s", holder))
}

// reportRunError classifies a failed attempt and feeds the supervisor.
// It returns the class used for the requeue decision; jobDeadlinePast
// tells the classifier whether a DeadlineExceeded belongs to the job
// (its own budget ran out — workload) or to a phase budget (hang
// evidence — instrument).
func (s *Scheduler) reportRunError(resources []string, err error, jobDeadlinePast bool) health.Class {
	cls := health.Classify(err)
	if errors.Is(err, context.DeadlineExceeded) && jobDeadlinePast {
		cls = health.ClassWorkload
	}
	if s.health == nil || cls != health.ClassInstrument {
		return cls
	}
	cause := err.Error()
	wedge := strings.Contains(cause, "exceeded its") // phase-budget text: hard evidence
	for _, res := range attributeResources(resources, cause) {
		if wedge {
			s.health.ReportWedge(res, cause)
		} else {
			s.health.ReportFailure(res, cause)
		}
	}
	return cls
}

// attributeResources matches an error's text against the assigned
// instruments: "sp200 acquire phase exceeded..." blames sp200/ch1, a
// J-Kem protocol error blames jkem/u1. Errors naming no instrument
// blame none — requeue still happens, but no breaker moves on
// ambiguous evidence.
func attributeResources(resources []string, cause string) []string {
	lc := strings.ToLower(cause)
	var out []string
	for _, res := range resources {
		class := resourceClass(res)
		if class != "" && strings.Contains(lc, strings.ToLower(class)) {
			out = append(out, res)
		}
	}
	return out
}

// resourceClass extracts the instrument class from a lease resource
// name: "sp200/ch1" → "sp200", and with a facility scope,
// "facA/sp200/ch1" → "sp200" or "labA-sp200/ch1" → "sp200".
func resourceClass(resource string) string {
	parts := strings.Split(resource, "/")
	class := parts[0]
	if len(parts) >= 2 {
		class = parts[len(parts)-2]
	}
	if i := strings.LastIndexByte(class, '-'); i >= 0 {
		class = class[i+1:]
	}
	return class
}

// containsResource reports whether rs includes res.
func containsResource(rs []string, res string) bool {
	for _, r := range rs {
		if r == res {
			return true
		}
	}
	return false
}

// jobDeadline computes the job's absolute end-to-end deadline: wall
// time from admission, so queue wait counts against the budget.
func jobDeadline(job *Job) (time.Time, bool) {
	if job.Spec.DeadlineMS <= 0 {
		return time.Time{}, false
	}
	base := time.Unix(0, job.SubmittedUnixNano)
	if job.SubmittedUnixNano == 0 {
		// A recovered job without a submission stamp restarts its budget.
		base = time.Now()
	}
	return base.Add(time.Duration(job.Spec.DeadlineMS) * time.Millisecond), true
}
