package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scanOutstanding is the admission loop Submit ran before the per-tenant
// counter replaced it, kept as the counter's oracle: a tenant's
// non-terminal entries, counted by walking the whole job table.
func scanOutstanding(s *Scheduler, tenant string) int {
	outstanding := 0
	for _, e := range s.jobs {
		if e.job.Tenant == tenant && !e.job.State.Terminal() {
			outstanding++
		}
	}
	return outstanding
}

// checkLiveMatchesScan compares the counter with the oracle for every
// tenant either of them knows, under the lock both are kept under.
func checkLiveMatchesScan(s *Scheduler) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tenants := map[string]bool{}
	for _, e := range s.jobs {
		tenants[e.job.Tenant] = true
	}
	for tenant, n := range s.live {
		if n <= 0 {
			return fmt.Errorf("live[%s] = %d: the counter keeps no entry below 1", tenant, n)
		}
		tenants[tenant] = true
	}
	for tenant := range tenants {
		if got, want := s.live[tenant], scanOutstanding(s, tenant); got != want {
			return fmt.Errorf("live[%s] = %d, scan counts %d", tenant, got, want)
		}
	}
	return nil
}

func liveCount(s *Scheduler, tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live[tenant]
}

// terminalEvents counts the done/failed/cancelled events among evs.
func terminalEvents(evs []Event) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == "done" || ev.Type == "failed" || ev.Type == "cancelled" {
			n++
		}
	}
	return n
}

var nullRunner = RunnerFunc(func(context.Context, Job, func(string, string)) (json.RawMessage, error) {
	return json.RawMessage(`{"ok":true}`), nil
})

// TestEventsNeverMissTerminal pins "a terminal state implies its
// terminal event is readable": subscriptions opened at every moment of
// a job's life — before it starts, while it completes, after it is
// done — must, whenever their stream ends, have delivered exactly one
// terminal event between the backlog and the live channel.
func TestEventsNeverMissTerminal(t *testing.T) {
	const submitters, perSubmitter = 8, 625 // 5000 jobs
	s := newTestScheduler(t, t.TempDir(), Config{
		Workers:       2,
		DefaultLimits: TenantLimits{MaxOutstanding: 4},
		Health:        HealthConfig{Disabled: true},
	}, nullRunner)
	defer s.Stop()

	var streams, afterTerminal atomic.Int64
	// drain empties a subscription without blocking and reports whether
	// the stream has ended (its channel is closed).
	drain := func(live <-chan Event) (got []Event, ended bool) {
		for {
			select {
			case ev, ok := <-live:
				if !ok {
					return got, true
				}
				got = append(got, ev)
			default:
				return got, false
			}
		}
	}
	check := func(id string, past, live []Event) error {
		streams.Add(1)
		if n := terminalEvents(past) + terminalEvents(live); n != 1 {
			return fmt.Errorf("%s: stream ended having delivered %d terminal events (backlog %d, live %d)", id, n, len(past), len(live))
		}
		return nil
	}
	// watch follows one job: a subscriber attached for the job's whole
	// life, which must be handed the terminal event live and then the
	// close, while further subscriptions are opened and dropped as fast
	// as the lock allows, so that some land inside the completion.
	watch := func(id string) error {
		past, live, unsub, err := s.Events(id)
		if err != nil {
			return err
		}
		defer unsub()
		for {
			p, l, u, err := s.Events(id)
			if err != nil {
				return err
			}
			got, ended := drain(l)
			u()
			if ended {
				afterTerminal.Add(int64(terminalEvents(p)))
				if err := check(id, p, got); err != nil {
					return err
				}
				break
			}
			runtime.Gosched() // 8 spinners on few cores: let the workers in
		}
		var got []Event
		for ev := range live { // the job is terminal: this stream ends too
			got = append(got, ev)
		}
		if err := check(id, past, got); err != nil {
			return fmt.Errorf("long-lived subscriber: %w", err)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spec := JobSpec{Tenant: fmt.Sprintf("t%d", g), Kind: KindCV}
			for i := 0; i < perSubmitter; i++ {
				job, err := s.Submit(spec)
				if err == nil {
					err = watch(job.ID)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := checkLiveMatchesScan(s); err != nil {
		t.Error(err)
	}
	t.Logf("%d streams ended, %d of them opened after the terminal transition", streams.Load(), afterTerminal.Load())
}

// TestQuotaHoldsUnderConcurrentSubmit: the quota slot is reserved where
// it is checked, so a burst of concurrent submits cannot overshoot
// MaxOutstanding, and every rejection after the reservation returns it.
func TestQuotaHoldsUnderConcurrentSubmit(t *testing.T) {
	var failMirror atomic.Bool
	dir := t.TempDir()
	cfg := Config{
		Dir:           dir,
		Workers:       2,
		QueueCapacity: 8,
		RetryAfter:    3 * time.Second,
		DefaultLimits: TenantLimits{MaxOutstanding: 4},
		Tenants: map[string]TenantLimits{
			// 5 tokens, refilled far too slowly to matter here.
			"acl":    {MaxOutstanding: 4, RatePerSec: 0.001, Burst: 5},
			"bursty": {MaxOutstanding: 4, RatePerSec: 0.001, Burst: 1},
			"filler": {MaxOutstanding: 16},
		},
		Health: HealthConfig{Disabled: true},
		WALMirror: func(rec WALRecord) error {
			if failMirror.Load() && rec.State == StatePending {
				return errors.New("injected replication failure")
			}
			return nil
		},
	}
	runner := newStubRunner() // blocked: nothing finishes until release
	s := newTestScheduler(t, dir, cfg, runner)

	const submitters = 32
	var admitted, quota atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV})
			var busy *Busy
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.As(err, &busy) && busy.Reason == "tenant quota (4 outstanding jobs)" && busy.RetryAfter == 3*time.Second:
				quota.Add(1)
			default:
				t.Errorf("unexpected submit outcome: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted.Load() != 4 || quota.Load() != submitters-4 {
		t.Fatalf("admitted %d, quota-rejected %d; want 4 and %d", admitted.Load(), quota.Load(), submitters-4)
	}
	if got := liveCount(s, "acl"); got != 4 {
		t.Fatalf("live[acl] = %d, want 4", got)
	}
	// Four admissions spent four of the five tokens; the 28 quota
	// rejections spent none.
	s.limiter.mu.Lock()
	tokens := s.limiter.buckets["acl"].tokens
	s.limiter.mu.Unlock()
	if tokens < 1 || tokens >= 2 {
		t.Fatalf("acl bucket holds %.3f tokens, want 1 (quota rejections must not spend any)", tokens)
	}
	// Both workers are now busy with acl's jobs; wait until they are, so
	// what follows stays queued.
	<-runner.started
	<-runner.started

	// Rate limit: the reservation is not kept.
	if _, err := s.Submit(JobSpec{Tenant: "bursty", Kind: KindCV}); err != nil {
		t.Fatal(err)
	}
	var busy *Busy
	if _, err := s.Submit(JobSpec{Tenant: "bursty", Kind: KindCV}); !errors.As(err, &busy) || busy.Reason != "rate limit" {
		t.Fatalf("second bursty submit: %v, want rate limit", err)
	}
	if got := liveCount(s, "bursty"); got != 1 {
		t.Fatalf("live[bursty] = %d after a rate rejection, want 1", got)
	}

	// Injected WAL-append failure: the admission fails the job, which
	// gives its slot back and stays in the table as FAILED.
	known := len(s.Jobs())
	failMirror.Store(true)
	_, err := s.Submit(JobSpec{Tenant: "walfail", Kind: KindCV})
	failMirror.Store(false)
	if err == nil || !strings.Contains(err.Error(), "injected replication failure") {
		t.Fatalf("submit with a failing WAL mirror: %v", err)
	}
	if got := liveCount(s, "walfail"); got != 0 {
		t.Fatalf("live[walfail] = %d after a refused admission, want 0", got)
	}
	if jobs := s.Jobs(); len(jobs) != known+1 || jobs[known].State != StateFailed {
		t.Fatalf("job table after a refused admission: %d entries, newest %+v; want %d, the newest FAILED", len(jobs), jobs[len(jobs)-1], known+1)
	}

	// Queue full: 2 acl + 1 bursty are queued; filler takes the other 5
	// places and its sixth submit bounces.
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(JobSpec{Tenant: "filler", Kind: KindCV}); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}
	if _, err := s.Submit(JobSpec{Tenant: "filler", Kind: KindCV}); !errors.As(err, &busy) || !strings.HasPrefix(busy.Reason, "queue full") {
		t.Fatalf("ninth queued submit: %v, want queue full", err)
	}
	if got := liveCount(s, "filler"); got != 5 {
		t.Fatalf("live[filler] = %d after a queue-full rejection, want 5", got)
	}
	if err := checkLiveMatchesScan(s); err != nil {
		t.Fatal(err)
	}

	// A crash keeps the quota: replayed PENDING and RUNNING jobs count.
	s.Kill()
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := liveCount(s, "acl"); got != 4 {
		t.Fatalf("live[acl] = %d after WAL replay, want 4", got)
	}
	// The refused admission's PENDING record reached the local disk (the
	// mirror fails after the fsync); its FAILED record keeps the restart
	// from re-enqueueing a job its submitter was told was refused.
	if got := liveCount(s, "walfail"); got != 0 {
		t.Fatalf("live[walfail] = %d after WAL replay: the refused admission would run", got)
	}
	if err := checkLiveMatchesScan(s); err != nil {
		t.Fatal(err)
	}
	runner = newStubRunner()
	s.SetRunner(runner)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if _, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV}); !errors.As(err, &busy) || busy.Reason != "tenant quota (4 outstanding jobs)" {
		t.Fatalf("submit after restart: %v, want the quota rejection", err)
	}

	// Finishing and cancelling free each slot exactly once.
	close(runner.release)
	for _, job := range s.Jobs() {
		if job.Tenant == "filler" {
			if err := s.Cancel(job.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, job := range s.Jobs() {
		if _, err := s.WaitTerminal(ctx, job.ID); err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
	}
	s.mu.Lock()
	left := len(s.live)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d tenants still hold live slots after every job finished", left)
	}
}

// TestGatewayQuota429 pins what a tenant at MaxOutstanding sees over
// HTTP: 429, Retry-After, and the reason text.
func TestGatewayQuota429(t *testing.T) {
	runner := newStubRunner()
	_, srv := newTestGateway(t, Config{
		Workers:       1,
		RetryAfter:    4 * time.Second,
		DefaultLimits: TenantLimits{MaxOutstanding: 1},
	}, runner)
	t.Cleanup(func() { close(runner.release) })

	resp := postJSON(t, srv.URL+"/v1/jobs", `{"tenant": "acl", "kind": "cv"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %s", resp.Status)
	}
	resp = postJSON(t, srv.URL+"/v1/jobs", `{"tenant": "acl", "kind": "cv"}`)
	defer resp.Body.Close()
	var apiErr struct {
		Error      string  `json:"error"`
		RetryAfter float64 `json:"retry_after_s"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "4" ||
		apiErr.Error != "tenant quota (1 outstanding jobs)" || apiErr.RetryAfter != 4 {
		t.Fatalf("over quota: %s, Retry-After %q, body %+v", resp.Status, resp.Header.Get("Retry-After"), apiErr)
	}
}

// TestRefusedAdmissionNeverReachesRunner: an idle worker is waiting
// while the admission's PENDING record fails to commit. The job fails
// with the append error and never reaches the runner: the next
// admission is the first job the worker runs. After a crash the
// restarted scheduler does not stage the refused job either.
func TestRefusedAdmissionNeverReachesRunner(t *testing.T) {
	var failMirror atomic.Bool
	failMirror.Store(true)
	runner := newStubRunner()
	close(runner.release)
	dir := t.TempDir()
	s := newTestScheduler(t, dir, Config{
		Workers: 1,
		Health:  HealthConfig{Disabled: true},
		WALMirror: func(rec WALRecord) error {
			if rec.State != StatePending || !failMirror.Load() {
				return nil
			}
			time.Sleep(50 * time.Millisecond) // time for a worker to take a visible job
			return errors.New("injected replication failure")
		},
	}, runner)
	defer s.Stop()

	if _, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV}); err == nil {
		t.Fatal("submit succeeded with a failing WAL mirror")
	}
	failMirror.Store(false)
	next, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.WaitTerminal(ctx, next.ID); err != nil {
		t.Fatal(err)
	}
	if got := runner.dispatched(); !reflect.DeepEqual(got, []string{next.ID}) {
		t.Fatalf("runner ran %v, want only %s", got, next.ID)
	}
	refused, _ := s.Job("j-000001")
	events, _, _, _ := s.Events(refused.ID)
	if refused.State != StateFailed || !strings.Contains(refused.Error, "injected replication failure") ||
		len(events) != 1 || events[0].Type != "failed" {
		t.Fatalf("refused job = %+v, events %+v; want FAILED with the append error and one failed event", refused, events)
	}
	if err := checkLiveMatchesScan(s); err != nil {
		t.Fatal(err)
	}

	// The mirror fails after the local fsync, so the refused PENDING
	// record is on disk; the FAILED record after it keeps a restart from
	// running the job.
	s.Kill()
	restarted, err := New(Config{Dir: dir, Health: HealthConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Kill()
	if staged := restarted.Recovered(); len(staged) != 0 {
		t.Fatalf("restart staged %+v for re-enqueue, want nothing", staged)
	}
	if j, _ := restarted.Job(refused.ID); j.State != StateFailed {
		t.Fatalf("refused job after restart = %+v, want FAILED", j)
	}
}

// TestRequeueAndAdoptJournalBeforeDispatch holds the PENDING record of
// a checkpoint-requeue, then of an adoption, in the WAL mirror while a
// worker is idle. Neither job may start its next attempt until its
// record commits, and each job's log shows the requeue or adoption
// before the start. A cancel while a requeue record is held ends the
// job.
func TestRequeueAndAdoptJournalBeforeDispatch(t *testing.T) {
	var holdJob atomic.Value
	holdJob.Store("")
	held, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	runner := &scriptedRunner{running: map[string]chan scriptedOutcome{}}
	s := newTestScheduler(t, t.TempDir(), Config{
		Workers: 2,
		Health:  HealthConfig{FailureThreshold: 1 << 30, RetryBudget: 1 << 30},
		WALMirror: func(rec WALRecord) error {
			if rec.State == StatePending && rec.Job == holdJob.Load() {
				select {
				case held <- struct{}{}:
					select {
					case <-release:
					case <-done:
					}
				case <-done:
				}
			}
			return nil
		},
	}, runner)
	defer s.Stop()
	defer close(done) // a failed check must not leave the record held through Stop
	waitRunning := func(id string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !slices.Contains(runner.ids(), id); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never started", id)
			}
		}
	}
	// commitHeld checks that id stays off the runner while its record
	// is held, then lets the record commit and waits for the start.
	commitHeld := func(id, before string) {
		t.Helper()
		<-held
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if slices.Contains(runner.ids(), id) {
				t.Fatalf("%s started before its PENDING record committed", id)
			}
		}
		holdJob.Store("")
		release <- struct{}{}
		waitRunning(id)
		events, _, _, _ := s.Events(id)
		var types []string
		for _, ev := range events {
			types = append(types, ev.Type)
		}
		if i := slices.Index(types, before); i < 0 || !slices.Contains(types[i+1:], "started") {
			t.Fatalf("%s events = %v, want %q before started", id, types, before)
		}
	}

	job, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(job.ID)
	holdJob.Store(job.ID)
	go runner.finish(job.ID, instrumentErr) // checkpoint-requeue; the other worker is idle
	commitHeld(job.ID, "requeued")
	runner.finish(job.ID, nil)

	const peer = "peer-000001"
	holdJob.Store(peer)
	adopted := make(chan error, 1)
	go func() {
		adopted <- s.Adopt(Job{ID: peer, Tenant: "acl", Spec: JobSpec{Tenant: "acl", Kind: KindCV}, State: StateRunning, Attempts: 1})
	}()
	commitHeld(peer, "adopted")
	if err := <-adopted; err != nil {
		t.Fatal(err)
	}

	// A cancel that lands while the requeue record is held finds the job
	// neither running nor queued; the transition must honour it rather
	// than queue the job for a third attempt.
	holdJob.Store(peer)
	go runner.finish(peer, instrumentErr)
	<-held
	if err := s.Cancel(peer); err != nil {
		t.Fatal(err)
	}
	holdJob.Store("")
	release <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if final, err := s.WaitTerminal(ctx, peer); err != nil || final.State != StateCancelled || final.Attempts != 2 {
		t.Fatalf("cancelled during its requeue: %+v, %v; want CANCELLED after attempt 2 (running: %v)", final, err, runner.ids())
	}
}

// TestTenantJobsMatchesFilteredJobs: filtering inside the lock returns
// exactly what filtering the full listing returned.
func TestTenantJobsMatchesFilteredJobs(t *testing.T) {
	runner := newStubRunner()
	s := newTestScheduler(t, t.TempDir(), Config{Workers: 2, DefaultLimits: TenantLimits{MaxOutstanding: 64}}, runner)
	defer s.Stop()
	rng := rand.New(rand.NewSource(1))
	tenants := []string{"acl", "ornl", "hpc", "idle"}
	var ids []string
	for i := 0; i < 40; i++ {
		job, err := s.Submit(JobSpec{Tenant: tenants[rng.Intn(3)], Kind: KindCV, Priority: rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	// A mixed history: some cancelled, some done, the rest queued or running.
	for _, id := range ids[:10] {
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		runner.release <- struct{}{}
	}
	for _, tenant := range append(tenants, "") {
		got := s.TenantJobs(tenant)
		want := []Job{}
		for _, j := range s.Jobs() {
			if tenant == "" || j.Tenant == tenant {
				want = append(want, j)
			}
		}
		// Jobs still in flight may move between the two listings; the
		// identity and order of the entries may not.
		if !reflect.DeepEqual(jobIDs(got), jobIDs(want)) {
			t.Errorf("TenantJobs(%q) = %v, filtered Jobs() = %v", tenant, jobIDs(got), jobIDs(want))
		}
		if got == nil {
			t.Errorf("TenantJobs(%q) is nil: the gateway would list null", tenant)
		}
	}
	close(runner.release)
}

func jobIDs(jobs []Job) []string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// scriptedRunner holds every dispatched job until the test names its
// outcome, so a seeded schedule decides how each attempt ends.
type scriptedRunner struct {
	mu      sync.Mutex
	running map[string]chan scriptedOutcome
}

type scriptedOutcome struct {
	err error
	// returned is closed once the run has left the running set.
	returned chan struct{}
}

func (r *scriptedRunner) Run(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	ch := make(chan scriptedOutcome)
	r.mu.Lock()
	r.running[job.ID] = ch
	r.mu.Unlock()
	leave := func() {
		r.mu.Lock()
		delete(r.running, job.ID)
		r.mu.Unlock()
	}
	select {
	case <-ctx.Done():
		leave()
		return nil, ctx.Err()
	case out := <-ch:
		leave()
		close(out.returned)
		if out.err != nil {
			return nil, out.err
		}
		return json.RawMessage(`{"ok":true}`), nil
	}
}

// finish ends the job's current attempt with err (nil = done).
func (r *scriptedRunner) finish(id string, err error) {
	r.mu.Lock()
	ch := r.running[id]
	r.mu.Unlock()
	out := scriptedOutcome{err: err, returned: make(chan struct{})}
	ch <- out
	<-out.returned
}

// ids lists the running jobs in ID order.
func (r *scriptedRunner) ids() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.running))
	for id := range r.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestLiveCountMatchesScan is the accounting invariant over seeded
// schedules: whatever sequence of admissions, rejections, completions,
// requeues, adoptions, crashes and disownments a gateway lives through,
// every tenant's counter equals the brute-force scan after every step,
// and folding the WAL file gives the live table.
func TestLiveCountMatchesScan(t *testing.T) {
	const seeds = 200
	// did counts what the schedules did, rejections by their reason, so
	// a schedule that stops reaching a transition fails instead of
	// passing vacuously.
	did := map[string]int{}
	for seed := 1; seed <= seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := liveCountSchedule(t.TempDir(), seed, 40, did); err != nil {
				t.Fatalf("%v\nrepro: go test ./internal/sched -run 'TestLiveCountMatchesScan/seed=%d$'", err, seed)
			}
		})
	}
	for _, what := range []string{
		"submit", "submit: tenant quota", "submit: rate limit", "submit: queue full", "submit, WAL append fails",
		"cancel queued", "cancel running", "done", "failed", "checkpoint-requeue",
		"adopt", "adopt: queue full", "adopt a known job", "kill and reopen", "disown",
	} {
		if did[what] == 0 {
			t.Errorf("no schedule reached %q", what)
		}
	}
	t.Logf("over %d seeds: %v", seeds, did)
}

// liveCountSchedule runs one seeded schedule of steps operations and
// returns the first invariant violation.
func liveCountSchedule(dir string, seed int64, steps int, did map[string]int) error {
	const workers = 2
	rng := rand.New(rand.NewSource(seed))
	tenants := make([]string, 8)
	limits := map[string]TenantLimits{}
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%d", i)
		limits[tenants[i]] = TenantLimits{MaxOutstanding: 2 + i%3}
	}
	limits["t7"] = TenantLimits{MaxOutstanding: 3, RatePerSec: 0.001, Burst: 2}
	var failMirror atomic.Bool
	cfg := Config{
		Dir:           dir,
		Workers:       workers,
		QueueCapacity: 5, // small, so queue-full rollbacks happen
		Tenants:       limits,
		Health: HealthConfig{
			// The breaker never opens and the budget never runs out: an
			// instrument-class error always checkpoint-requeues.
			FailureThreshold: 1 << 30,
			RetryBudget:      1 << 30,
		},
		WALMirror: func(rec WALRecord) error {
			if failMirror.Load() && rec.State == StatePending && rec.Spec != nil {
				return errors.New("injected replication failure")
			}
			return nil
		},
	}
	runner := &scriptedRunner{running: map[string]chan scriptedOutcome{}}
	fold := &walFold{path: filepath.Join(dir, WALFileName)}
	open := func() (*Scheduler, error) {
		s, err := New(cfg)
		if err != nil {
			return nil, err
		}
		s.SetRunner(runner)
		return s, nil
	}
	s, err := open()
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	defer func() { s.Kill() }()

	// disowned jobs stay PENDING in the table (and in the count) but are
	// never dispatched by this incarnation.
	disowned := map[string]bool{}
	dispatchable := func() []string {
		var ids []string
		for _, j := range s.Jobs() {
			if !j.State.Terminal() && !disowned[j.ID] {
				ids = append(ids, j.ID)
			}
		}
		return ids
	}
	// settle waits until the workers have picked up all they can.
	settle := func() error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			want := len(dispatchable())
			if want > workers {
				want = workers
			}
			if len(runner.ids()) == want {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("workers never settled: running %v, dispatchable %v", runner.ids(), dispatchable())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	waitTerminal := func(id string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := s.WaitTerminal(ctx, id)
		return err
	}
	queued := func() []string {
		running := map[string]bool{}
		for _, id := range runner.ids() {
			running[id] = true
		}
		var ids []string
		for _, id := range dispatchable() {
			if !running[id] {
				ids = append(ids, id)
			}
		}
		return ids
	}
	pick := func(ids []string) string { return ids[rng.Intn(len(ids))] }
	foreign := 0

	for step := 0; step < steps; step++ {
		op := "submit"
		tenant := tenants[rng.Intn(len(tenants))]
		running, waiting := runner.ids(), queued()
		switch n := rng.Intn(100); {
		case n < 34:
			// Submit below; quota, rate and queue-full rejections come
			// from the limits above.
		case n < 40 && len(running) == workers:
			op = "submit, WAL append fails"
		case n < 48 && len(waiting) > 0:
			op = "cancel queued"
		case n < 56 && len(running) > 0:
			op = "cancel running"
		case n < 66 && len(running) > 0:
			op = "done"
		case n < 72 && len(running) > 0:
			op = "failed"
		case n < 80 && len(running) > 0:
			op = "checkpoint-requeue"
		case n < 87:
			op = "adopt"
		case n < 91 && len(running)+len(waiting) > 0:
			op = "adopt a known job"
		case n < 100 && n >= 91:
			op = "kill and reopen"
		}
		did[op]++
		// rejected files a *Busy under its reason and passes anything
		// else on as the step's failure.
		rejected := func(err error) error {
			var busy *Busy
			if !errors.As(err, &busy) {
				return err
			}
			reason, _, _ := strings.Cut(busy.Reason, " (")
			did["submit: "+reason]++
			return nil
		}
		var opErr error
		switch op {
		case "submit":
			if _, err := s.Submit(JobSpec{Tenant: tenant, Kind: KindCV}); err != nil {
				opErr = rejected(err)
			}
		case "submit, WAL append fails":
			// Only with every worker busy: the refused job ends FAILED
			// without reaching the queue or a worker.
			failMirror.Store(true)
			_, err := s.Submit(JobSpec{Tenant: tenant, Kind: KindCV})
			failMirror.Store(false)
			if err == nil {
				opErr = errors.New("submit succeeded with a failing WAL mirror")
			} else if !strings.Contains(err.Error(), "injected") {
				opErr = rejected(err)
			}
		case "cancel queued":
			id := pick(waiting)
			if opErr = s.Cancel(id); opErr == nil {
				opErr = waitTerminal(id)
			}
		case "cancel running":
			id := pick(running)
			if opErr = s.Cancel(id); opErr == nil {
				opErr = waitTerminal(id)
			}
		case "done":
			id := pick(running)
			runner.finish(id, nil)
			opErr = waitTerminal(id)
		case "failed":
			id := pick(running)
			runner.finish(id, errors.New("cv spec: scan rate out of range"))
			opErr = waitTerminal(id)
		case "checkpoint-requeue":
			runner.finish(pick(running), instrumentErr)
		case "adopt":
			foreign++
			state := StatePending
			if rng.Intn(2) == 0 {
				state = StateRunning
			}
			err := s.Adopt(Job{
				ID:       fmt.Sprintf("peer-%06d", foreign),
				Tenant:   tenant,
				Spec:     JobSpec{Tenant: tenant, Kind: KindCV},
				State:    state,
				Attempts: rng.Intn(2),
			})
			var busy *Busy
			if errors.As(err, &busy) && busy.Reason == "queue full" {
				did["adopt: queue full"]++ // refused before any entry is made
			} else {
				opErr = err
			}
		case "adopt a known job":
			id := pick(append(running, waiting...))
			if err := s.Adopt(Job{ID: id, Tenant: tenant, Spec: JobSpec{Tenant: tenant, Kind: KindCV}, State: StatePending}); err == nil {
				opErr = fmt.Errorf("adopting known job %s succeeded", id)
			}
		case "kill and reopen":
			s.Kill()
			if s, opErr = open(); opErr != nil {
				return fmt.Errorf("step %d (%s): %w", step, op, opErr)
			}
			if err := checkLive(s, fold, func(string) bool { return true }); err != nil {
				return fmt.Errorf("step %d (WAL replay): %w", step, err)
			}
			disowned = map[string]bool{}
			for _, job := range s.Recovered() {
				if rng.Intn(4) == 0 {
					s.Disown(job.ID)
					disowned[job.ID] = true
					did["disown"]++
				}
			}
			if err := checkLive(s, fold, func(string) bool { return true }); err != nil {
				return fmt.Errorf("step %d (disown): %w", step, err)
			}
			opErr = s.Start()
		}
		if opErr == nil {
			opErr = settle()
		}
		if opErr != nil {
			return fmt.Errorf("step %d (%s): %w", step, op, opErr)
		}
		if err := checkLive(s, fold, func(id string) bool { return disowned[id] }); err != nil {
			return fmt.Errorf("step %d (%s): %w", step, op, err)
		}
	}
	return nil
}

// checkLive is the schedule's check after each step: the counter
// against the scan, and the WAL fold against the live table.
func checkLive(s *Scheduler, fold *walFold, staged func(id string) bool) error {
	if err := checkLiveMatchesScan(s); err != nil {
		return err
	}
	return fold.check(s, staged)
}

// walFold folds the schedule's WAL file as it grows: each check
// decodes only the records appended since the last one.
type walFold struct {
	path string
	read int
	recs []WALRecord
}

// check folds the WAL file and compares every job with the live table
// on the fields the fold owns. staged names the jobs New staged from
// RUNNING to PENDING that no re-enqueue record has journaled since
// (before Start, or disowned).
func (w *walFold) check(s *Scheduler, staged func(id string) bool) error {
	b, err := os.ReadFile(w.path)
	if err != nil {
		return err
	}
	// Every append has returned when a step is checked, so the file ends
	// with a whole record.
	recs, err := ReadWALRecords(bytes.NewReader(b[w.read:]))
	if err != nil {
		return err
	}
	w.read, w.recs = len(b), append(w.recs, recs...)
	replayed := FoldWALRecords(w.recs)
	owned := func(j Job) Job {
		return Job{ID: j.ID, State: j.State, Attempts: j.Attempts, Tenant: j.Tenant, Spec: j.Spec,
			TraceID: j.TraceID, Result: j.Result, Error: j.Error,
			SubmittedUnixNano: j.SubmittedUnixNano, StartedUnixNano: j.StartedUnixNano, FinishedUnixNano: j.FinishedUnixNano}
	}
	live := s.Jobs()
	if len(live) != len(replayed) {
		return fmt.Errorf("live table holds %d jobs, the WAL folds to %d", len(live), len(replayed))
	}
	sort.Slice(replayed, func(i, j int) bool { return replayed[i].ID < replayed[j].ID })
	for i, job := range replayed {
		if staged(job.ID) && job.State == StateRunning {
			job.State = StatePending
		}
		if got, want := owned(live[i]), owned(*job); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("live job %+v\n  != WAL fold %+v", got, want)
		}
	}
	return nil
}
