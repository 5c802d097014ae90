package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ice/internal/sched"
)

// TestReplicaStoreDedupAndRecover exercises the replica's durability
// contract: applied items are deduplicated by replication sequence
// (retransmitted batches after a heal are harmless), the
// acknowledgement is the per-origin high-water mark, and a reopened
// store recovers it from disk.
func TestReplicaStoreDedupAndRecover(t *testing.T) {
	dir := t.TempDir()
	store, err := openReplicaStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	rec := func(seq uint64, state sched.State) repItem {
		return repItem{
			RepSeq: seq,
			Kind:   kindWAL,
			WAL:    &sched.WALRecord{Seq: seq, Job: "faca-000001", State: state},
		}
	}
	ack, err := store.Apply("faca", []repItem{
		rec(1, sched.StatePending),
		{RepSeq: 2, Kind: kindJournal, Job: "faca-000001", Line: json.RawMessage(`{"task_id":"A","status":"OK"}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack != 2 {
		t.Fatalf("ack = %d, want 2", ack)
	}

	// A retransmitted batch overlapping the acknowledged prefix: the
	// overlap is skipped, only the new suffix lands.
	ack, err = store.Apply("faca", []repItem{
		rec(1, sched.StatePending),
		{RepSeq: 2, Kind: kindJournal, Job: "faca-000001", Line: json.RawMessage(`{"task_id":"A","status":"OK"}`)},
		rec(3, sched.StateRunning),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack != 3 {
		t.Fatalf("ack after retransmission = %d, want 3", ack)
	}

	items, err := store.Read("faca")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("stream holds %d items after dedup, want 3", len(items))
	}
	recs, journals := foldStream(items)
	if len(recs) != 2 || len(journals["faca-000001"]) != 1 {
		t.Fatalf("fold = %d WAL records, %d journal lines; want 2 and 1", len(recs), len(journals["faca-000001"]))
	}
	store.Close()

	// Reopen: the high-water mark survives, so a replayed batch from
	// before the restart is still deduplicated.
	reopened, err := openReplicaStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if last := reopened.LastSeq("faca"); last != 3 {
		t.Fatalf("recovered LastSeq = %d, want 3", last)
	}
	if ack, err = reopened.Apply("faca", []repItem{rec(3, sched.StateRunning)}); err != nil || ack != 3 {
		t.Fatalf("replayed batch after reopen: ack %d err %v, want 3 nil", ack, err)
	}
	items, err = reopened.Read("faca")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("stream grew to %d items on replayed batch, want 3", len(items))
	}
}

// TestReplicaStoreAppendAfterTornTail: a replica killed mid-append
// reopens, acknowledges new items, and must still reopen after that —
// the torn item is cut off instead of having the next one glued on.
func TestReplicaStoreAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	item := func(seq uint64) repItem {
		return repItem{RepSeq: seq, Kind: kindWAL, WAL: &sched.WALRecord{Seq: seq, Job: "faca-000001", State: sched.StateRunning}}
	}
	store, err := openReplicaStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Apply("faca", []repItem{item(1), item(2)}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	f, err := os.OpenFile(filepath.Join(dir, "faca", replicaStreamFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"rep_seq":3,"kind":"wal","wal":{"se`) // kill -9 mid-write
	f.Close()

	store, err = openReplicaStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if last := store.LastSeq("faca"); last != 2 {
		t.Fatalf("LastSeq over torn tail = %d, want 2", last)
	}
	if ack, err := store.Apply("faca", []repItem{item(3), item(4)}); err != nil || ack != 4 {
		t.Fatalf("apply after torn tail: ack %d err %v, want 4 nil", ack, err)
	}
	store.Close()

	store, err = openReplicaStore(dir)
	if err != nil {
		t.Fatalf("reopen after appending past a torn tail: %v", err)
	}
	defer store.Close()
	items, err := store.Read("faca")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 || store.LastSeq("faca") != 4 {
		t.Fatalf("stream holds %d items, last seq %d; want 4 and 4", len(items), store.LastSeq("faca"))
	}
}
