package cluster

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/sched"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// TestClusterFailoverKillDashNineExactlyOnce is the ISSUE's headline
// acceptance drill: facility A's gateway is killed (kill -9 — no
// goodbye, no flush beyond what replication already acknowledged)
// right after the CV workflow's task C filled the electrochemical
// cell. Facility B's gateway must detect the silence, pass the
// fencing probe (A's lab still answers — crashed gateway, live
// facility), replay the replicated WAL, install the replicated
// checkpoint journal, and finish the job exactly once: DONE on
// attempt two, digest-verified measurement, each liquid-moving
// command in A's lab audit journal exactly once, no leaked leases,
// and one stitched trace carrying a cluster.failover event.
func TestClusterFailoverKillDashNineExactlyOnce(t *testing.T) {
	base := t.TempDir()
	labDir := filepath.Join(base, "lab-a")
	if err := os.MkdirAll(labDir, 0o755); err != nil {
		t.Fatal(err)
	}
	dep, err := core.Deploy(labDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if err := dep.Agent.EnableAudit(); err != nil {
		t.Fatal(err)
	}
	connector := &sched.DeploymentConnector{D: dep, Host: netsim.HostDGX}

	nw := newFabric(t)
	labProbeTarget(t, nw, hostLabA)
	labProbeTarget(t, nw, hostLabB)

	// One tracer for both nodes: the acceptance criterion is a single
	// stitched trace across the failover, and a shared store makes
	// that directly observable.
	tracer := trace.New(trace.WithStore(trace.NewStore(0, 0)))

	dirA := filepath.Join(base, "state-a")
	dirB := filepath.Join(base, "state-b")

	// Node A, rigged to die at the C→D task boundary.
	killed := make(chan struct{})
	var crashOnce sync.Once
	var srvA *http.Server
	var nodeA *Node
	newRunnerA := func(n *Node, fac string) sched.Runner {
		lr := &sched.LabRunner{
			Connector:     connector,
			Leases:        n.Scheduler().Leases(),
			Dir:           n.Scheduler().Dir(),
			Resources:     FacilityResources(fac),
			MirrorJournal: n.MirrorJournal,
		}
		grab := newGrabRunner(lr)
		lr.OnTask = func(jobID string, rec workflow.TaskRecord) {
			if rec.TaskID != "C" || rec.Status != "OK" {
				return
			}
			// Runs inside the worker goroutine; Kill waits for that
			// goroutine, so the kill must proceed concurrently while the
			// workflow is held here until the job's context is cut.
			crashOnce.Do(func() {
				go func() {
					srvA.Close()
					nodeA.Kill()
					close(killed)
				}()
				<-grab.ctx(jobID).Done()
			})
		}
		return grab
	}
	nodeA, err = NewNode(Config{
		Facility: "faca",
		Peers: []Peer{{
			Facility: "facb",
			URL:      urlGwB,
			Probe:    probeVia(nw, hostGwA, hostLabB),
		}},
		Sched:          sched.Config{Dir: dirA, Workers: 1, Tracer: tracer},
		NewRunner:      newRunnerA,
		Transport:      nsTransport(nw, hostGwA),
		HeartbeatEvery: 50 * time.Millisecond,
		FailoverAfter:  250 * time.Millisecond,
		RetryAfter:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Node B: same lab (it adopts A's instruments on failover), no seam.
	nodeB, err := NewNode(Config{
		Facility: "facb",
		Peers: []Peer{{
			Facility: "faca",
			URL:      urlGwA,
			Probe:    probeVia(nw, hostGwB, hostLabA),
		}},
		Sched: sched.Config{Dir: dirB, Workers: 1, Tracer: tracer},
		NewRunner: func(n *Node, fac string) sched.Runner {
			return &sched.LabRunner{
				Connector:     connector,
				Leases:        n.Scheduler().Leases(),
				Dir:           n.Scheduler().Dir(),
				Resources:     FacilityResources(fac),
				MirrorJournal: n.MirrorJournal,
			}
		},
		Transport:      nsTransport(nw, hostGwB),
		HeartbeatEvery: 50 * time.Millisecond,
		FailoverAfter:  250 * time.Millisecond,
		RetryAfter:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	srvA = serveNode(t, nw, hostGwA, nodeA)
	serveNode(t, nw, hostGwB, nodeB)
	if err := nodeB.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nodeB.Stop)
	if err := nodeA.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nodeA.Kill) // idempotent; normally already dead by then

	// Wait for the first heartbeat exchange so replication is live
	// before admission — the synchronous path the drill depends on.
	awaitTrue(t, 5*time.Second, "peers see each other", func() bool {
		return nodeA.Ready().Peers["facb"] && nodeB.Ready().Peers["faca"]
	})

	clientA := nsClient(nw, hostUserA)
	clientB := nsClient(nw, hostUserB)
	job := submitJob(t, clientA, urlGwA, sched.JobSpec{Tenant: "acl", Kind: sched.KindCV, Points: 400})
	if facilityOfJob(job.ID) != "faca" {
		t.Fatalf("job ID %q not prefixed with admitting facility", job.ID)
	}

	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("facility A gateway never died at the crash seam")
	}
	killedAt := time.Now()

	// B must notice the silence, fence, adopt, and finish the job. The
	// ISSUE asks for failover (adoption) under 10s; the CV itself then
	// re-runs from the replicated checkpoint.
	awaitTrue(t, 10*time.Second, "node B adopts faca", func() bool {
		_, known := nodeB.Scheduler().Job(job.ID)
		return known
	})
	t.Logf("adoption latency: %s", time.Since(killedAt))

	final := awaitJobDone(t, clientB, urlGwB, job.ID, 90*time.Second)
	if final.State != sched.StateDone {
		t.Fatalf("adopted job = %s (%s), want DONE", final.State, final.Error)
	}
	if final.Attempts != 2 || !final.Resumed {
		t.Fatalf("adopted job attempts = %d resumed = %v, want 2 resumed", final.Attempts, final.Resumed)
	}

	// The origin gateway is dead, but the surviving peer answers for
	// the job ID from anywhere — route by prefix, serve locally.
	viaB, status, err := fetchJob(clientB, urlGwB, job.ID)
	if err != nil || status != http.StatusOK || viaB.State != sched.StateDone {
		t.Fatalf("status via surviving peer = %v HTTP %d err %v", viaB.State, status, err)
	}

	// The survivor reports itself a ready leader after the takeover.
	resp, err := clientB.Get(urlGwB + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready sched.ReadyStatus
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !ready.Ready || ready.Role != "leader" {
		t.Errorf("survivor readyz = HTTP %d %+v (%v), want a ready leader", resp.StatusCode, ready, err)
	}

	// Digest verification against the data channel.
	var result sched.CVResult
	if err := json.Unmarshal(final.Result, &result); err != nil {
		t.Fatal(err)
	}
	if result.Points != 401 || result.SHA256 == "" {
		t.Fatalf("resumed result = %+v", result)
	}
	_, mount, err := dep.ConnectFrom(netsim.HostDGX)
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

	// Exactly-once: each liquid-moving command appears once in the
	// lab's audit journal — the adopted attempt resumed from the
	// replicated checkpoint instead of re-filling the cell.
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

	if active := nodeB.Scheduler().Leases().Active(); len(active) != 0 {
		t.Fatalf("leaked leases on the adopter: %+v", active)
	}

	// No WAL record loss despite group commit and kill -9: every
	// record A acknowledged on disk must be present in B's replica
	// stream (synchronous replication ran ahead of the local ack).
	walFile, err := os.Open(filepath.Join(dirA, sched.WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	local, err := sched.ReadWALRecords(walFile)
	walFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	items, err := nodeB.store.Read("faca")
	if err != nil {
		t.Fatal(err)
	}
	replicated, _ := foldStream(items)
	repSeqs := make(map[uint64]bool, len(replicated))
	for _, rec := range replicated {
		repSeqs[rec.Seq] = true
	}
	for _, rec := range local {
		if !repSeqs[rec.Seq] {
			t.Errorf("WAL record seq %d (%s %s) on A's disk missing from B's replica", rec.Seq, rec.Job, rec.State)
		}
	}

	// One stitched trace: the adopted attempt's spans re-rooted into
	// the original trace, carrying the cluster.failover event.
	recs := tracer.Store().Trace(job.TraceID)
	if len(recs) == 0 {
		t.Fatal("job trace empty")
	}
	var sawFailover, sawAdoptedSpan bool
	for _, rec := range recs {
		if rec.Attrs["adopted"] == "true" {
			sawAdoptedSpan = true
		}
		for _, ev := range rec.Events {
			if ev.Name == "cluster.failover" {
				sawFailover = true
			}
		}
	}
	if !sawFailover || !sawAdoptedSpan {
		t.Fatalf("stitched trace: failover event %v, adopted span %v, want both", sawFailover, sawAdoptedSpan)
	}
}
