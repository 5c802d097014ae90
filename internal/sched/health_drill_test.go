package sched

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/potentiostat"
	"ice/internal/sched/health"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// TestWedgeDrillEndToEnd is the ISSUE's acceptance drill, in-process
// and race-detector friendly: the potentiostat wedges mid-acquisition,
// the acquire budget trips the breaker, the job checkpoint-requeues
// with its journal intact, the fence aborts the wedged run, a recovery
// probe closes the breaker, and the job completes exactly once. The
// job's trace tells that story, and nothing leaks.
func TestWedgeDrillEndToEnd(t *testing.T) {
	checkGoroutines(t)
	base := t.TempDir()
	labDir := filepath.Join(base, "lab")
	if err := os.MkdirAll(labDir, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := core.Deploy(labDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	connector := &DeploymentConnector{D: d, Host: netsim.HostDGX}

	tracer := trace.New(trace.WithStore(trace.NewStore(0, 0)))
	s, err := New(Config{
		Dir:      filepath.Join(base, "state"),
		Workers:  2,
		LeaseTTL: 2 * time.Second,
		Tracer:   tracer,
		Health: HealthConfig{
			ProbeInterval:    100 * time.Millisecond,
			ProbeTimeout:     500 * time.Millisecond,
			FailureThreshold: 2,
			OpenFor:          500 * time.Millisecond,
			RetryBudget:      2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := d.Agent.SP200()
	var wedgeOnce sync.Once
	s.SetRunner(&LabRunner{
		Connector: connector,
		Leases:    s.Leases(),
		Dir:       s.Dir(),
		// Generous enough that a healthy acquisition never blows it
		// even under the race detector's overhead; the wedged attempt
		// still trips it, just 2.5s in.
		AcquireBudget: 2500 * time.Millisecond,
		OnTask: func(jobID string, rec workflow.TaskRecord) {
			if rec.TaskID == "C" && rec.Status == "OK" {
				wedgeOnce.Do(func() {
					sp.InjectFault(potentiostat.DeviceFault{Mode: potentiostat.FaultWedgeBusy})
				})
			}
		},
	})
	prober := &LabProber{Connector: connector}
	s.RegisterProber(ResourceSP200, prober.ProberFor(ResourceSP200))
	s.RegisterProber(ResourceJKem, prober.ProberFor(ResourceJKem))
	s.SetFence(prober.FenceFor)
	t.Cleanup(prober.Close)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	job, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the wedge must checkpoint-requeue the job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, ok := s.Job(job.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if cur.Resumed {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job ended %s before any requeue: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job was never checkpoint-requeued")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: wait for the quarantine fence to abort the wedged run
	// (busy drops to 0 while the fault is still injected), then heal
	// the instrument.
	for !strings.Contains(sp.Status(), "busy=0") {
		if time.Now().After(deadline) {
			t.Fatalf("fence never aborted the wedged acquisition: %s", sp.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	sp.ClearFault()

	// Phase 3: recovery probe closes the breaker; the job resumes from
	// its journal and completes.
	var final Job
	for {
		cur, _ := s.Job(job.ID)
		if cur.State.Terminal() {
			final = cur
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish after recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Attempts < 2 {
		t.Fatalf("job finished in %d attempt(s); the wedge never bit", final.Attempts)
	}

	// Exactly-once audit: one fill dispense (tasks A-C restored from
	// the journal, not re-run) and one completed acquisition (the
	// wedged run was fenced into an abort).
	dispenses := 0
	for _, line := range d.Agent.SBC().CommandLog() {
		if strings.Contains(line, "SYRINGEPUMP_DISPENSE") {
			dispenses++
		}
	}
	if dispenses != 1 {
		t.Errorf("exactly-once violated: %d dispense commands, want 1", dispenses)
	}
	completed := 0
	for _, line := range sp.EventLog() {
		if strings.Contains(line, "> data record") {
			completed++
		}
	}
	if completed != 1 {
		t.Errorf("exactly-once violated: %d completed acquisitions, want 1", completed)
	}

	// The breaker's history shows the round trip and nothing leaked.
	sawRoundTrip := false
	for _, ih := range s.Health().Snapshot() {
		if ih.Resource == ResourceSP200 && ih.Opens >= 1 && ih.Recovered >= 1 && ih.State == health.Closed {
			sawRoundTrip = true
		}
	}
	if !sawRoundTrip {
		t.Errorf("no open→recover round trip in health snapshot: %+v", s.Health().Snapshot())
	}
	w := httptest.NewRecorder()
	NewGateway(s).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var hz struct{ Quarantined int }
	if err := json.NewDecoder(w.Body).Decode(&hz); err != nil || hz.Quarantined != 0 {
		t.Errorf("healthz reports %d quarantined instruments (%v), want 0", hz.Quarantined, err)
	}
	if leases := s.Leases().Active(); len(leases) != 0 {
		t.Errorf("leaked leases: %+v", leases)
	}

	// Stop finalises the root span, which carries the requeue and the
	// health events.
	s.Stop()
	events := map[string]bool{}
	for _, rec := range tracer.Store().Trace(final.TraceID) {
		for _, ev := range rec.Events {
			events[ev.Name] = true
		}
	}
	for _, name := range []string{"instrument.quarantine", "instrument.recovered", "sched.requeue"} {
		if !events[name] {
			t.Errorf("trace %s has no %s event", final.TraceID, name)
		}
	}
}

// instrumentErr is classified ClassInstrument by health.Classify.
var instrumentErr = errors.New("potentiostat: injected device fault: StartChannel")

func TestCheckpointRequeueExhaustsRetryBudget(t *testing.T) {
	runner := newStubRunner()
	close(runner.release)
	runner.failWith = instrumentErr
	s := newTestScheduler(t, t.TempDir(), Config{
		Workers: 1,
		Health: HealthConfig{
			// High threshold: the breaker must not open, so every retry
			// redispatches immediately and the budget alone stops it.
			FailureThreshold: 100,
			RetryBudget:      2,
		},
	}, runner)
	defer s.Stop()

	job, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var final Job
	for {
		cur, _ := s.Job(job.ID)
		if cur.State.Terminal() {
			final = cur
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed after budget exhaustion", final.State)
	}
	// 1 initial + RetryBudget extra attempts.
	if final.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + retry budget 2)", final.Attempts)
	}
	if !final.Resumed {
		t.Error("job was never checkpoint-requeued")
	}
}

func TestWorkloadErrorsDoNotRequeue(t *testing.T) {
	runner := newStubRunner()
	close(runner.release)
	runner.failWith = errors.New("cv spec: scan rate out of range")
	s := newTestScheduler(t, t.TempDir(), Config{
		Workers: 1,
		Health:  HealthConfig{RetryBudget: 2},
	}, runner)
	defer s.Stop()

	job, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := s.Job(job.ID)
		if cur.State.Terminal() {
			if cur.State != StateFailed {
				t.Fatalf("state = %s, want failed", cur.State)
			}
			if cur.Attempts != 1 {
				t.Errorf("attempts = %d: a workload error must not burn retry budget", cur.Attempts)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestUnmeetableDeadlineRejectedAtAdmission(t *testing.T) {
	runner := newStubRunner()
	close(runner.release)
	s := newTestScheduler(t, t.TempDir(), Config{
		Workers:    1,
		RetryAfter: 2 * time.Second,
		Health:     HealthConfig{MinDeadline: 500 * time.Millisecond},
	}, runner)
	defer s.Stop()

	_, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV, DeadlineMS: 100})
	var unavail *Unavailable
	if !errors.As(err, &unavail) {
		t.Fatalf("Submit = %v, want *Unavailable", err)
	}
	if unavail.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", unavail.RetryAfter)
	}
	if !strings.Contains(unavail.Reason, "below this facility's minimum") {
		t.Errorf("Reason = %q", unavail.Reason)
	}
	// A meetable deadline (and no deadline at all) still admits.
	if _, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV, DeadlineMS: 60_000}); err != nil {
		t.Errorf("meetable deadline rejected: %v", err)
	}
	if _, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV}); err != nil {
		t.Errorf("no-deadline submit rejected: %v", err)
	}
}

func TestGatewayMaps503WithRetryAfter(t *testing.T) {
	runner := newStubRunner()
	close(runner.release)
	s, srv := newTestGateway(t, Config{
		Workers:    1,
		RetryAfter: 2 * time.Second,
		Health:     HealthConfig{MinDeadline: 500 * time.Millisecond},
	}, runner)
	defer s.Stop()
	defer srv.Close()

	// Unmeetable deadline → 503 + Retry-After, marked permanent so
	// clients stop resubmitting the same doomed spec.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"tenant": "acl", "kind": "cv", "deadline_ms": 100}`))
	if err != nil {
		t.Fatal(err)
	}
	var deadlineErr struct {
		Error     string `json:"error"`
		Permanent bool   `json:"permanent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&deadlineErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}
	if !deadlineErr.Permanent {
		t.Error("deadline-floor rejection is not marked permanent")
	}

	// All-quarantined facility → 503 as well.
	s.Health().ReportWedge(ResourceSP200, "drill")
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"tenant": "acl", "kind": "cv"}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error     string `json:"error"`
		Permanent bool   `json:"permanent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-quarantined submit = %s, want 503", resp.Status)
	}
	if !strings.Contains(apiErr.Error, "quarantined") {
		t.Errorf("error = %q, want quarantine reason", apiErr.Error)
	}
	if apiErr.Permanent {
		t.Error("quarantine rejection marked permanent: recovery probes make it retriable")
	}

	// healthz exposes the quarantine.
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Quarantined int                     `json:"quarantined"`
		Instruments []health.ResourceHealth `json:"instruments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Quarantined != 1 {
		t.Errorf("healthz quarantined = %d, want 1", hz.Quarantined)
	}
}

func TestJobDeadlineBoundsRunnerContext(t *testing.T) {
	runner := newStubRunner()
	runner.blockCtx = true // block until the job's ctx is cancelled
	s := newTestScheduler(t, t.TempDir(), Config{
		Workers: 1,
		Health:  HealthConfig{MinDeadline: 10 * time.Millisecond, RetryBudget: 2},
	}, runner)
	defer s.Stop()

	job, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV, DeadlineMS: 300})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never dispatched")
	}
	runner.mu.Lock()
	ctx := runner.lastCtx
	runner.mu.Unlock()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("runner context carries no deadline for a deadline_ms job")
	}

	// The deadline fires; the job must FAIL (its own budget ran out),
	// never checkpoint-requeue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := s.Job(job.ID)
		if cur.State.Terminal() {
			if cur.State != StateFailed {
				t.Fatalf("state = %s, want failed", cur.State)
			}
			if cur.Attempts != 1 {
				t.Errorf("attempts = %d: a blown job deadline must not requeue", cur.Attempts)
			}
			if !strings.Contains(cur.Error, "end-to-end budget") {
				t.Errorf("error = %q, want end-to-end budget attribution", cur.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLeaseQuarantineInteraction covers the satellite: a lease whose
// holder's heartbeat died is revoked by TTL, the revocation feeds the
// breaker, the quarantined instrument grants no new lease, and
// recovery (via a half-open probe) restores granting.
func TestLeaseQuarantineInteraction(t *testing.T) {
	runner := newStubRunner()
	close(runner.release)
	s := newTestScheduler(t, t.TempDir(), Config{
		Workers:  1,
		LeaseTTL: 50 * time.Millisecond,
		Health: HealthConfig{
			ProbeInterval:    time.Hour, // probes only via ProbeNow
			FailureThreshold: 1,
			OpenFor:          50 * time.Millisecond,
		},
	}, runner)
	defer s.Stop()

	healthy := true
	var mu sync.Mutex
	s.RegisterProber(ResourceSP200, func(ctx context.Context, recovering bool) error {
		mu.Lock()
		defer mu.Unlock()
		if !healthy {
			return instrumentErr
		}
		return nil
	})

	// Hold the lease and let the heartbeat die (never renew).
	lease, err := s.Leases().TryAcquire(ResourceSP200, "wedged-holder")
	if err != nil {
		t.Fatal(err)
	}
	_ = lease // the holder wedges: no Renew, no Release
	mu.Lock()
	healthy = false
	mu.Unlock()
	time.Sleep(80 * time.Millisecond) // TTL lapses

	// The next acquisition attempt revokes the stale grant; the
	// revocation reports to the breaker (threshold 1 → open). The
	// revocation callback is asynchronous, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Health().Quarantined(ResourceSP200) {
		if l, err := s.Leases().TryAcquire(ResourceSP200, "next-holder"); err == nil {
			// Won the pre-quarantine race; give it back and retry.
			l.Release()
		}
		if time.Now().After(deadline) {
			t.Fatal("lease expiry never quarantined the instrument")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// While quarantined, the free slot still grants nothing.
	if _, err := s.Leases().TryAcquire(ResourceSP200, "eager-holder"); err == nil {
		t.Fatal("quarantined instrument granted a lease")
	} else if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("TryAcquire = %v, want quarantine refusal", err)
	}

	// Heal, cool down, recover via a half-open probe; granting resumes.
	mu.Lock()
	healthy = true
	mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	s.Health().ProbeNow(ResourceSP200)
	if s.Health().Quarantined(ResourceSP200) {
		t.Fatal("instrument still quarantined after a successful recovery probe")
	}
	l, err := s.Leases().TryAcquire(ResourceSP200, "recovered-holder")
	if err != nil {
		t.Fatalf("TryAcquire after recovery: %v", err)
	}
	l.Release()
}
