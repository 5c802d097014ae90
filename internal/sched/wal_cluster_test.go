package sched

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// TestWALGroupCommitCollapsesFsyncs drives concurrent appenders
// through the group-commit path: every append is durably acknowledged
// (all records present with distinct sequence numbers after reopen)
// while the fsync count stays below the append count — the whole point
// of batching. The first flush is held until every writer's first
// record has queued, so those eight share one fsync on any schedule.
func TestWALGroupCommitCollapsesFsyncs(t *testing.T) {
	dir := t.TempDir()
	w, replayed, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh WAL replayed %d jobs", len(replayed))
	}

	const writers, perWriter = 8, 25
	queued, resume := w.log.Stall()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := WALRecord{
					Job:   fmt.Sprintf("j-%03d%03d", g, i),
					State: StatePending,
					Spec:  &JobSpec{Tenant: "acl", Kind: KindCV},
				}
				if err := w.Append(rec); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for queued() < writers {
		runtime.Gosched()
	}
	resume()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := w.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Syncs > st.Appends-writers+1 {
		t.Fatalf("syncs = %d for %d appends: the %d held records did not share one fsync", st.Syncs, st.Appends, writers)
	}
	t.Logf("group commit: %d appends in %d fsyncs", st.Appends, st.Syncs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadWALRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("reopened WAL holds %d records, want %d", len(recs), writers*perWriter)
	}
	seen := make(map[uint64]bool, len(recs))
	var maxSeq uint64
	for _, rec := range recs {
		if rec.Seq == 0 || seen[rec.Seq] {
			t.Fatalf("record %s has duplicate or zero seq %d", rec.Job, rec.Seq)
		}
		seen[rec.Seq] = true
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	if maxSeq != uint64(writers*perWriter) {
		t.Fatalf("max seq = %d, want %d (dense assignment)", maxSeq, writers*perWriter)
	}
}

// TestFoldWALRecordsDuplicateSeqHigherTermWins replays a merged
// stream where a partition left two records claiming the same
// sequence slot: the higher leadership term must win regardless of
// file order.
func TestFoldWALRecordsDuplicateSeqHigherTermWins(t *testing.T) {
	spec := &JobSpec{Tenant: "acl", Kind: KindCV}
	recs := []WALRecord{
		{Seq: 1, Term: 1, Job: "faca-000001", Tenant: "acl", State: StatePending, Spec: spec},
		// The adopter's term-2 completion arrives first in the merged
		// file; the stale term-1 RUNNING record from the old leader's
		// flushed backlog lands after it.
		{Seq: 2, Term: 2, Job: "faca-000001", State: StateDone},
		{Seq: 2, Term: 1, Job: "faca-000001", State: StateRunning, Attempt: 1},
	}
	jobs := FoldWALRecords(recs)
	if len(jobs) != 1 {
		t.Fatalf("folded %d jobs, want 1", len(jobs))
	}
	if jobs[0].State != StateDone {
		t.Fatalf("duplicate seq folded to %s, want DONE (term 2 over term 1)", jobs[0].State)
	}
}

// TestFoldWALRecordsInterleavedTenants folds a stream whose records
// interleave two tenants' jobs — each job must reach its own final
// state, in submission order, with no cross-talk.
func TestFoldWALRecordsInterleavedTenants(t *testing.T) {
	recs := []WALRecord{
		{Seq: 1, Job: "faca-000001", Tenant: "acl", State: StatePending, Spec: &JobSpec{Tenant: "acl", Kind: KindCV}, TimeUnixNano: 10},
		{Seq: 2, Job: "faca-000002", Tenant: "mit", State: StatePending, Spec: &JobSpec{Tenant: "mit", Kind: KindCV}, TimeUnixNano: 20},
		{Seq: 3, Job: "faca-000001", State: StateRunning, Attempt: 1},
		{Seq: 4, Job: "faca-000002", State: StateRunning, Attempt: 1},
		{Seq: 5, Job: "faca-000001", State: StateDone},
		{Seq: 6, Job: "faca-000002", State: StateFailed, Error: "cell fault"},
	}
	jobs := FoldWALRecords(recs)
	if len(jobs) != 2 {
		t.Fatalf("folded %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != "faca-000001" || jobs[1].ID != "faca-000002" {
		t.Fatalf("fold order = %s, %s; want submission order", jobs[0].ID, jobs[1].ID)
	}
	if jobs[0].Tenant != "acl" || jobs[0].State != StateDone {
		t.Fatalf("job 1 = tenant %s state %s, want acl DONE", jobs[0].Tenant, jobs[0].State)
	}
	if jobs[1].Tenant != "mit" || jobs[1].State != StateFailed || jobs[1].Error != "cell fault" {
		t.Fatalf("job 2 = tenant %s state %s (%s), want mit FAILED", jobs[1].Tenant, jobs[1].State, jobs[1].Error)
	}
}

// TestFoldWALRecordsReplicaAhead models a replica that is strictly
// ahead of a restarted leader: the leader re-ships a prefix it had
// already replicated, so the merged stream repeats low sequence
// numbers after the replica's higher ones. The fold must order by
// sequence, keep the high-water records, and not let the
// retransmitted prefix roll the job's state back.
func TestFoldWALRecordsReplicaAhead(t *testing.T) {
	spec := &JobSpec{Tenant: "acl", Kind: KindCV}
	recs := []WALRecord{
		// The replica's copy, already at seq 3.
		{Seq: 1, Term: 1, Job: "faca-000001", Tenant: "acl", State: StatePending, Spec: spec},
		{Seq: 2, Term: 1, Job: "faca-000001", State: StateRunning, Attempt: 1},
		{Seq: 3, Term: 1, Job: "faca-000001", State: StateDone},
		// The restarted leader's retransmission of its prefix.
		{Seq: 1, Term: 1, Job: "faca-000001", Tenant: "acl", State: StatePending, Spec: spec},
		{Seq: 2, Term: 1, Job: "faca-000001", State: StateRunning, Attempt: 1},
	}
	jobs := FoldWALRecords(recs)
	if len(jobs) != 1 {
		t.Fatalf("folded %d jobs, want 1", len(jobs))
	}
	if jobs[0].State != StateDone {
		t.Fatalf("replica-ahead fold = %s, want DONE (seq 3 must survive the retransmitted prefix)", jobs[0].State)
	}
	if jobs[0].Attempts != 1 {
		t.Fatalf("replica-ahead fold attempts = %d, want 1", jobs[0].Attempts)
	}

	// Legacy streams (no sequence numbers) still fold in file order.
	legacy := []WALRecord{
		{Job: "j-000001", Tenant: "acl", State: StatePending, Spec: spec},
		{Job: "j-000001", State: StateRunning, Attempt: 1},
	}
	folded := FoldWALRecords(legacy)
	if len(folded) != 1 || folded[0].State != StateRunning {
		t.Fatalf("legacy fold = %+v, want single RUNNING job", folded)
	}
}
