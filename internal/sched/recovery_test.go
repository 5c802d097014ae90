package sched

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/workflow"
)

// ctxGrabRunner wraps a Runner and captures each job's context, so a
// crash seam running inside the worker goroutine can wait for the kill
// to actually land before letting the workflow engine proceed.
type ctxGrabRunner struct {
	inner Runner
	mu    sync.Mutex
	ctxs  map[string]context.Context
}

func (r *ctxGrabRunner) Run(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	r.mu.Lock()
	r.ctxs[job.ID] = ctx
	r.mu.Unlock()
	return r.inner.Run(ctx, job, emit)
}

func (r *ctxGrabRunner) ctx(id string) context.Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctxs[id]
}

// TestRecoveryCrashMidJobExactlyOnce is the ISSUE's headline
// acceptance drill against a real lab: the daemon is killed (kill -9
// semantics — no goodbye records) right after task C has filled the
// electrochemical cell, a fresh daemon restarts over the same state
// directory, and the job must complete exactly once: DONE on the
// second attempt, digest-verified measurement, and an audit journal
// showing each liquid-moving command dispatched exactly once — the
// fill was not repeated on resume.
func TestRecoveryCrashMidJobExactlyOnce(t *testing.T) {
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
	if err := d.Agent.EnableAudit(); err != nil {
		t.Fatal(err)
	}

	stateDir := filepath.Join(base, "state")
	connector := &DeploymentConnector{D: d, Host: netsim.HostDGX}

	// Daemon incarnation one, rigged to die at the C→D boundary.
	s1, err := New(Config{Dir: stateDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	var crashOnce sync.Once
	lab1 := &LabRunner{Connector: connector, Leases: s1.Leases(), Dir: stateDir}
	grab := &ctxGrabRunner{inner: lab1, ctxs: make(map[string]context.Context)}
	lab1.OnTask = func(jobID string, rec workflow.TaskRecord) {
		if rec.TaskID != "C" || rec.Status != "OK" {
			return
		}
		// This callback runs inside the worker goroutine; Kill waits for
		// that goroutine, so the kill must run concurrently while we hold
		// the workflow here until the job's context is cut.
		crashOnce.Do(func() {
			go func() {
				s1.Kill()
				close(killed)
			}()
			<-grab.ctx(jobID).Done()
		})
	}
	s1.SetRunner(grab)
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}

	job, err := s1.Submit(JobSpec{Tenant: "acl", Kind: KindCV, Points: 400})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never died at the crash seam")
	}

	// Daemon incarnation two over the same state directory.
	s2, err := New(Config{Dir: stateDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recovered, ok := s2.Job(job.ID)
	if !ok {
		t.Fatal("crashed job missing after replay")
	}
	if recovered.State != StatePending || !recovered.Resumed {
		t.Fatalf("replayed job = state %s resumed %v, want PENDING resumed", recovered.State, recovered.Resumed)
	}
	s2.SetRunner(&LabRunner{Connector: connector, Leases: s2.Leases(), Dir: stateDir})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s2.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("resumed job = %s (%s), want DONE", final.State, final.Error)
	}
	if final.Attempts != 2 || !final.Resumed {
		t.Fatalf("resumed job attempts = %d resumed = %v, want 2 resumed", final.Attempts, final.Resumed)
	}

	// Digest verification: the result's sha256 must match what the data
	// channel reports for the measurement file right now.
	var result CVResult
	if err := json.Unmarshal(final.Result, &result); err != nil {
		t.Fatal(err)
	}
	if result.Points != 401 || result.SHA256 == "" {
		t.Fatalf("resumed result = %+v", result)
	}
	_, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer mount.Close()
	sum, _, err := mount.Checksum(result.File)
	if err != nil {
		t.Fatal(err)
	}
	if sum != result.SHA256 {
		t.Fatalf("digest mismatch: result %s, data channel %s", result.SHA256, sum)
	}

	// Exactly-once: the audit journal at the lab must show each
	// liquid-moving command once. A re-run of the fill on resume would
	// double the cell's analyte and show up here.
	auditData, err := os.ReadFile(filepath.Join(labDir, core.AuditFileName))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := core.ParseAuditJournal(auditData)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, e := range entries {
		counts[e.Method]++
	}
	for _, method := range []string{"WithdrawSyringePump", "DispenseSyringePump", "StartChannelSP200"} {
		if counts[method] != 1 {
			t.Errorf("audit journal shows %s ×%d, want exactly once", method, counts[method])
		}
	}

	if active := s2.Leases().Active(); len(active) != 0 {
		t.Fatalf("leaked leases after recovery: %+v", active)
	}
}

// TestLabRunnerResumesTwiceAfterTornJournal: a cv job killed mid-write
// of a checkpoint, resumed, and killed again must still resume. The
// first resume has to cut the torn checkpoint off before appending, or
// its own records are glued onto it and the second resume cannot parse
// the journal.
func TestLabRunnerResumesTwiceAfterTornJournal(t *testing.T) {
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
	if err := d.Agent.EnableAudit(); err != nil {
		t.Fatal(err)
	}
	leases := NewLeases(time.Minute)
	defer leases.Close()
	stateDir := filepath.Join(base, "state")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	lab := &LabRunner{Connector: &DeploymentConnector{D: d, Host: netsim.HostDGX}, Leases: leases, Dir: stateDir}
	job := Job{ID: "j-000001", Spec: JobSpec{Tenant: "acl", Kind: KindCV, Points: 400}}
	var events []string
	emit := func(kind, msg string) { events = append(events, kind+": "+msg) }
	// attempt runs the job until the checkpoint named by crashAt, where
	// the run context is cut as a kill would cut it; the rest of the
	// workflow is skipped.
	attempt := func(n int, crashAt string) (json.RawMessage, error) {
		job.Attempts = n
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		lab.OnTask = func(_ string, rec workflow.TaskRecord) {
			if rec.TaskID+" "+rec.Status == crashAt {
				cancel()
			}
		}
		return lab.Run(ctx, job, emit)
	}

	attempt(1, "C OK")
	f, err := os.OpenFile(filepath.Join(stateDir, job.ID+".journal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"workflow":"cv","task":"D","sta`) // killed mid-checkpoint
	f.Close()
	attempt(2, "D running")
	events = nil
	res, err := attempt(3, "")
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	var result CVResult
	if err := json.Unmarshal(res, &result); err != nil || result.SHA256 == "" {
		t.Fatalf("second resume result %s (%v)", res, err)
	}
	if !strings.Contains(strings.Join(events, "\n"), "resumed: 3 completed task(s)") {
		t.Fatalf("second resume did not restore A–C:\n%s", strings.Join(events, "\n"))
	}
	auditData, err := os.ReadFile(filepath.Join(labDir, core.AuditFileName))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := core.ParseAuditJournal(auditData)
	if err != nil {
		t.Fatal(err)
	}
	fills := 0
	for _, e := range entries {
		if e.Method == "DispenseSyringePump" {
			fills++
		}
	}
	if fills != 1 {
		t.Fatalf("audit shows %d fills across three attempts, want 1", fills)
	}
}
