package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/netsim"
	"ice/internal/testutil"
	"ice/internal/workflow"
)

// checkGoroutines fails the test unless the goroutine count settles
// back to its value at the call once the test and every cleanup
// registered after this one are done. Call it first, so it runs last.
func checkGoroutines(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		if err := testutil.WaitGoroutines(baseline, 0, 5*time.Second); err != nil {
			t.Error(err)
		}
	})
}

// deployLab stands up one fresh simulated lab with auditing on.
func deployLab(t *testing.T) (*core.Deployment, string) {
	t.Helper()
	labDir := filepath.Join(t.TempDir(), "lab")
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
	return d, labDir
}

func auditCounts(t *testing.T, labDir string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(labDir, core.AuditFileName))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := core.ParseAuditJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, e := range entries {
		counts[e.Method]++
	}
	return counts
}

func runJob(t *testing.T, s *Scheduler, spec JobSpec) Job {
	t.Helper()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job %s = %s (%s), want DONE", job.ID, final.State, final.Error)
	}
	return final
}

func exampleDAG(t *testing.T, name string) json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "dag", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDAGJobMatchesClassicCV is the headline equivalence drill: the
// shipped cv_classic.json DAG, run on a fresh lab, must produce a
// measurement digest-identical to the hardwired cv job on an equally
// fresh lab — and the same ML normality verdict — then hit the
// content-keyed cache on resubmission without touching the
// instrument again. Lab A then runs the two-cell campaign_round.json.
func TestDAGJobMatchesClassicCV(t *testing.T) {
	checkGoroutines(t)
	clf, err := dag.ClassifierForSeed(dag.DefaultClassifierSeed)
	if err != nil {
		t.Fatal(err)
	}

	// Classic path on lab A.
	dA, _ := deployLab(t)
	sA, err := New(Config{Dir: filepath.Join(t.TempDir(), "state"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sA.SetRunner(&LabRunner{
		Connector:  &DeploymentConnector{D: dA, Host: netsim.HostDGX},
		Leases:     sA.Leases(),
		Dir:        sA.Dir(),
		Classifier: clf,
	})
	if err := sA.Start(); err != nil {
		t.Fatal(err)
	}
	defer sA.Stop()
	classicJob := runJob(t, sA, JobSpec{Tenant: "acl", Kind: KindCV})
	var classic CVResult
	if err := json.Unmarshal(classicJob.Result, &classic); err != nil {
		t.Fatal(err)
	}
	if classic.SHA256 == "" || classic.ClassName == "" {
		t.Fatalf("classic result incomplete: %+v", classic)
	}

	// The two-cell round on the same lab: the cv job's 6 mL plus the
	// round's two 6 mL fills stay within the 20 mL cell.
	campJob := runJob(t, sA, JobSpec{Tenant: "acl", Kind: KindDAG, DAG: exampleDAG(t, "campaign_round.json")})
	var camp dag.Result
	if err := json.Unmarshal(campJob.Result, &camp); err != nil {
		t.Fatal(err)
	}
	analyzed := 0
	for _, n := range camp.Nodes {
		if (n.Node == "c1_analyze" || n.Node == "c2_analyze") && n.Points > 0 {
			analyzed++
		}
	}
	if analyzed != 2 {
		t.Errorf("campaign round analyzed %d of its 2 cells: %+v", analyzed, camp.Nodes)
	}

	// DAG path on fresh lab B.
	dB, labB := deployLab(t)
	sB, err := New(Config{Dir: filepath.Join(t.TempDir(), "state"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sB.SetRunner(&LabRunner{
		Connector:  &DeploymentConnector{D: dB, Host: netsim.HostDGX},
		Leases:     sB.Leases(),
		Dir:        sB.Dir(),
		Classifier: clf,
		Metrics:    sB.Metrics(),
	})
	if err := sB.Start(); err != nil {
		t.Fatal(err)
	}
	defer sB.Stop()
	spec := JobSpec{Tenant: "acl", Kind: KindDAG, DAG: exampleDAG(t, "cv_classic.json")}
	dagJob := runJob(t, sB, spec)
	var res dag.Result
	if err := json.Unmarshal(dagJob.Result, &res); err != nil {
		t.Fatal(err)
	}
	nodes := make(map[string]dag.NodeResult)
	for _, n := range res.Nodes {
		nodes[n.Node] = n
	}
	if got := nodes["d_retrieve"].Digest; got != classic.SHA256 {
		t.Errorf("DAG measurement digest %s, classic %s — paths diverged", got, classic.SHA256)
	}
	if got := nodes["d_analyze"].Points; got != classic.Points {
		t.Errorf("DAG points %d, classic %d", got, classic.Points)
	}
	if got := nodes["d_classify"].ClassName; got != classic.ClassName {
		t.Errorf("DAG verdict %q, classic %q", got, classic.ClassName)
	}
	if res.NodesRun != len(res.Nodes) {
		t.Errorf("first run: %d/%d nodes live", res.NodesRun, len(res.Nodes))
	}

	// Resubmission: every cacheable node (acquire, retrieve, analyze,
	// classify) is served from the content-keyed cache; effectful
	// pyro/fill nodes re-run, so the dispense count doubles while the
	// acquisition count must not.
	rerunJob := runJob(t, sB, spec)
	var rerun dag.Result
	if err := json.Unmarshal(rerunJob.Result, &rerun); err != nil {
		t.Fatal(err)
	}
	if rerun.NodesCached < 4 {
		t.Errorf("re-run cached %d nodes, want >= 4 (acquire/retrieve/analyze/classify)", rerun.NodesCached)
	}
	if got := sB.Metrics().CounterValue("dag.nodes.cached"); got < 4 {
		t.Errorf("dag.nodes.cached = %d, want >= 4", got)
	}
	counts := auditCounts(t, labB)
	if counts["StartChannelSP200"] != 1 {
		t.Errorf("StartChannelSP200 ×%d across original+cached runs, want exactly 1", counts["StartChannelSP200"])
	}
	if counts["DispenseSyringePump"] != 2 {
		t.Errorf("DispenseSyringePump ×%d, want 2 (fills are never cached)", counts["DispenseSyringePump"])
	}
	for _, s := range []*Scheduler{sA, sB} {
		if active := s.Leases().Active(); len(active) != 0 {
			t.Fatalf("leaked leases: %+v", active)
		}
	}
}

// TestDAGCrashResumeExactlyOnce kills the daemon (kill -9 semantics)
// right after the retrieve node checkpoints, restarts over the same
// state directory, and requires completion with the finished nodes
// restored — the retrieve payload served from the content-keyed blob
// store — and an audit journal proving no command re-ran.
func TestDAGCrashResumeExactlyOnce(t *testing.T) {
	checkGoroutines(t)
	d, labDir := deployLab(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	connector := &DeploymentConnector{D: d, Host: netsim.HostDGX}

	s1, err := New(Config{Dir: stateDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	var crashOnce sync.Once
	lab1 := &LabRunner{Connector: connector, Leases: s1.Leases(), Dir: stateDir}
	grab := &ctxGrabRunner{inner: lab1, ctxs: make(map[string]context.Context)}
	lab1.OnTask = func(jobID string, rec workflow.TaskRecord) {
		if rec.TaskID != "d_retrieve" || rec.Status != "OK" {
			return
		}
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

	job, err := s1.Submit(JobSpec{Tenant: "acl", Kind: KindDAG, DAG: exampleDAG(t, "cv_classic.json")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never died at the crash seam")
	}

	s2, err := New(Config{Dir: stateDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recovered, ok := s2.Job(job.ID)
	if !ok {
		t.Fatal("crashed job missing after WAL replay")
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
	var res dag.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.NodesRestored == 0 {
		t.Error("no nodes restored from checkpoint journal on resume")
	}
	nodes := make(map[string]dag.NodeResult)
	for _, n := range res.Nodes {
		nodes[n.Node] = n
	}
	// The restored retrieve's bytes came from the content-keyed blob
	// store; its digest must still match the lab's file right now.
	sess, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	defer mount.Close()
	sum, _, err := mount.Checksum(nodes["d_retrieve"].File)
	if err != nil {
		t.Fatal(err)
	}
	if sum != nodes["d_retrieve"].Digest {
		t.Fatalf("digest mismatch after resume: result %s, data channel %s", nodes["d_retrieve"].Digest, sum)
	}
	counts := auditCounts(t, labDir)
	for _, method := range []string{"WithdrawSyringePump", "DispenseSyringePump", "StartChannelSP200"} {
		if counts[method] != 1 {
			t.Errorf("audit journal shows %s ×%d, want exactly once", method, counts[method])
		}
	}
	if active := s2.Leases().Active(); len(active) != 0 {
		t.Fatalf("leaked leases after recovery: %+v", active)
	}
}

// kindErrRunner simulates a runner build that lacks the submitted
// kind (a rolling upgrade skew): every run fails with
// ErrUnknownJobKind.
type kindErrRunner struct{}

func (kindErrRunner) Run(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	return nil, fmt.Errorf("%w %q", ErrUnknownJobKind, "warp")
}

// TestUnknownJobKindFailsTerminally covers the satellite: a kind no
// runner handles is workload-class — counted, failed on the first
// attempt, never requeued.
func TestUnknownJobKindFailsTerminally(t *testing.T) {
	// Runner-level contract first: LabRunner tags the error.
	lab := &LabRunner{}
	_, err := lab.Run(context.Background(), Job{Spec: JobSpec{Kind: "warp"}}, func(string, string) {})
	if !errors.Is(err, ErrUnknownJobKind) {
		t.Fatalf("LabRunner.Run(warp) = %v, want ErrUnknownJobKind", err)
	}

	s, err := New(Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRunner(kindErrRunner{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	job, err := s.Submit(JobSpec{Tenant: "acl", Kind: KindCV})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("job = %s, want FAILED", final.State)
	}
	if final.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (unknown kinds are never requeued)", final.Attempts)
	}
	if got := s.Metrics().CounterValue("sched.jobs.rejected.unknown_type"); got != 1 {
		t.Errorf("sched.jobs.rejected.unknown_type = %d, want 1", got)
	}
}

// TestDAGJobSpecValidation holds admission to the DAG rules: a dag
// job needs a valid document, and cv/campaign jobs reject one.
func TestDAGJobSpecValidation(t *testing.T) {
	bad := []JobSpec{
		{Tenant: "acl", Kind: KindDAG},
		{Tenant: "acl", Kind: KindDAG, DAG: json.RawMessage(`{"name":"x","nodes":[]}`)},
		{Tenant: "acl", Kind: KindDAG, DAG: json.RawMessage(`{"name":"x","nodes":[{"id":"a","type":"pyro","object":"jkem","method":"Status","needs":["a"]}]}`)},
		{Tenant: "acl", Kind: KindDAG, Points: 100, DAG: json.RawMessage(`{"name":"x","nodes":[{"id":"a","type":"pyro","object":"jkem","method":"Status"}]}`)},
		{Tenant: "acl", Kind: KindCV, DAG: json.RawMessage(`{}`)},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d validated, want rejection: %+v", i, spec)
		}
	}
	ok := JobSpec{Tenant: "acl", Kind: KindDAG, DAG: json.RawMessage(`{"name":"x","nodes":[{"id":"a","type":"pyro","object":"jkem","method":"Status"}]}`)}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid dag spec rejected: %v", err)
	}
}
