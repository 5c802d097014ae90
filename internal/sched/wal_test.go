package sched

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func walSpec(tenant string) *JobSpec {
	return &JobSpec{Tenant: tenant, Kind: KindCV}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, jobs, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("fresh WAL replayed %d jobs", len(jobs))
	}
	must := func(rec WALRecord) {
		t.Helper()
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(WALRecord{Job: "j-000001", Tenant: "acl", State: StatePending, Spec: walSpec("acl")})
	must(WALRecord{Job: "j-000001", State: StateRunning, Attempt: 1})
	must(WALRecord{Job: "j-000001", State: StateDone, Result: json.RawMessage(`{"points":600}`)})
	must(WALRecord{Job: "j-000002", Tenant: "dgx", State: StatePending, Spec: walSpec("dgx")})
	must(WALRecord{Job: "j-000002", State: StateRunning, Attempt: 1})
	must(WALRecord{Job: "j-000003", Tenant: "acl", State: StatePending, Spec: walSpec("acl")})
	w.Close()

	_, jobs, err = OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	byID := map[string]*Job{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if j := byID["j-000001"]; j.State != StateDone || string(j.Result) != `{"points":600}` {
		t.Fatalf("j-000001 replayed as %+v", j)
	}
	// The RUNNING job is the crash-recovery case: its spec and tenant
	// must survive from the PENDING record.
	if j := byID["j-000002"]; j.State != StateRunning || j.Tenant != "dgx" || j.Spec.Kind != KindCV || j.Attempts != 1 {
		t.Fatalf("j-000002 replayed as %+v", j)
	}
	if j := byID["j-000003"]; j.State != StatePending {
		t.Fatalf("j-000003 replayed as %+v", j)
	}
	if got := highestJobSeq(jobs); got != 3 {
		t.Fatalf("highestJobSeq = %d, want 3", got)
	}
}

// TestWALTruncatedTailTolerated: a crash mid-append leaves a partial
// final line; replay must drop it and keep everything before it.
func TestWALTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(WALRecord{Job: "j-000001", Tenant: "acl", State: StatePending, Spec: walSpec("acl")})
	w.Append(WALRecord{Job: "j-000001", State: StateRunning, Attempt: 1})
	w.Close()

	path := filepath.Join(dir, WALFileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job":"j-000001","state":"DO`) // power cut mid-write
	f.Close()

	_, jobs, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("truncated tail rejected: %v", err)
	}
	if len(jobs) != 1 || jobs[0].State != StateRunning {
		t.Fatalf("replay after truncation = %+v, want one RUNNING job", jobs)
	}
}

// TestWALAppendAfterTornTail: the daemon restarted over a torn tail
// keeps appending. The torn fragment must be cut off on open, or the
// next record is glued onto it and the restart after that fails with
// interior corruption, losing an acknowledged DONE.
func TestWALAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(WALRecord{Job: "j-000001", Tenant: "acl", State: StatePending, Spec: walSpec("acl")})
	w.Append(WALRecord{Job: "j-000001", State: StateRunning, Attempt: 1})
	w.Close()
	f, err := os.OpenFile(filepath.Join(dir, WALFileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job":"j-000001","state":"DO`) // kill -9 mid-write
	f.Close()

	w, jobs, err := OpenWAL(dir)
	if err != nil || len(jobs) != 1 || jobs[0].State != StateRunning {
		t.Fatalf("reopen over torn tail: %+v, %v", jobs, err)
	}
	if err := w.Append(WALRecord{Job: "j-000001", State: StateDone}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALRecord{Job: "j-000002", Tenant: "acl", State: StatePending, Spec: walSpec("acl")}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w, jobs, err = OpenWAL(dir)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer w.Close()
	if len(jobs) != 2 || jobs[0].State != StateDone || jobs[1].State != StatePending {
		t.Fatalf("second restart replayed %+v, want j-000001 DONE and j-000002 PENDING", jobs)
	}
	if got := w.LastSeq(); got != 4 {
		t.Fatalf("last seq = %d, want 4 (the torn record never had one)", got)
	}
}

// TestWALInteriorCorruptionRejected: garbage before the last line is
// real corruption, not a crash signature — silently skipping it could
// resurrect a completed job, so replay must fail loudly.
func TestWALInteriorCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	lines := []string{
		`{"job":"j-000001","tenant":"acl","state":"PENDING"}`,
		`{"job":"j-000001","state":"DO`, // corrupt, NOT last
		`{"job":"j-000002","tenant":"dgx","state":"PENDING"}`,
	}
	if err := os.WriteFile(filepath.Join(dir, WALFileName), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir); err == nil {
		t.Fatal("interior corruption replayed without error")
	}
}

func TestWALLatestRecordWins(t *testing.T) {
	r := strings.NewReader(strings.Join([]string{
		`{"job":"j-000001","tenant":"acl","state":"PENDING","spec":{"tenant":"acl","kind":"cv"}}`,
		`{"job":"j-000001","state":"RUNNING","attempt":1}`,
		`{"job":"j-000001","state":"PENDING"}`, // re-enqueued after restart
		`{"job":"j-000001","state":"RUNNING","attempt":2}`,
		`{"job":"j-000001","state":"DONE","result":{"ok":true}}`,
	}, "\n") + "\n")
	jobs, err := ReplayWAL(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.State != StateDone || j.Attempts != 2 || j.Tenant != "acl" {
		t.Fatalf("folded job = %+v", j)
	}
}

// TestFoldLateAdmissionKeepsState folds the order a fast job could
// leave in a WAL written while Submit queued before it journaled: the
// worker's RUNNING and DONE records took lower sequence numbers than
// the admission. The admission still supplies the spec, tenant, trace
// and submit time, but the job stays DONE: a restart must not run it
// again.
func TestFoldLateAdmissionKeepsState(t *testing.T) {
	jobs := FoldWALRecords([]WALRecord{
		{Seq: 1, Job: "j-000001", State: StateRunning, Attempt: 1, TimeUnixNano: 20},
		{Seq: 2, Job: "j-000001", State: StateDone, Result: json.RawMessage(`{"ok":true}`), TimeUnixNano: 30},
		{Seq: 3, Job: "j-000001", Tenant: "acl", State: StatePending, Spec: walSpec("acl"), TraceID: "tr-1", TimeUnixNano: 10},
	})
	if len(jobs) != 1 {
		t.Fatalf("folded %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.State != StateDone || j.Attempts != 1 || j.Tenant != "acl" || j.Spec.Kind != KindCV ||
		j.TraceID != "tr-1" || j.SubmittedUnixNano != 10 || string(j.Result) != `{"ok":true}` {
		t.Fatalf("folded job = %+v, want DONE with the admission's spec", j)
	}
}

// TestFoldLateRequeueKeepsState folds the order a requeue (or an
// adoption) could leave in a WAL written while it queued the job
// before it journaled: the next attempt ran and finished before the
// PENDING record of the attempt it requeued landed. The job stays DONE
// with two attempts: a restart must not run it again.
func TestFoldLateRequeueKeepsState(t *testing.T) {
	jobs := FoldWALRecords([]WALRecord{
		{Seq: 1, Job: "j-000001", Tenant: "acl", State: StatePending, Spec: walSpec("acl"), TimeUnixNano: 10},
		{Seq: 2, Job: "j-000001", State: StateRunning, Attempt: 1, TimeUnixNano: 20},
		{Seq: 3, Job: "j-000001", State: StateRunning, Attempt: 2, TimeUnixNano: 40},
		{Seq: 4, Job: "j-000001", State: StateDone, Result: json.RawMessage(`{"ok":true}`), TimeUnixNano: 50},
		{Seq: 5, Job: "j-000001", State: StatePending, Attempt: 1, TimeUnixNano: 30},
	})
	if len(jobs) != 1 {
		t.Fatalf("folded %d jobs, want 1", len(jobs))
	}
	if j := jobs[0]; j.State != StateDone || j.Attempts != 2 || j.StartedUnixNano != 40 || j.FinishedUnixNano != 50 {
		t.Fatalf("folded job = %+v, want DONE after attempt 2", j)
	}
}
