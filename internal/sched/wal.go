package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ice/internal/jsonl"
)

// WALFileName is the job store's file inside the gateway's state
// directory.
const WALFileName = "icegated_jobs.jsonl"

// WALRecord is one job transition, appended as a JSON line. The spec
// travels with the first (PENDING) record so a restarted daemon can
// reconstruct and re-enqueue the job from the WAL alone.
type WALRecord struct {
	// TimeUnixNano is the transition wall time.
	TimeUnixNano int64 `json:"t,omitempty"`
	// Seq is the record's position in this WAL stream, assigned by
	// Append. Replication ships records with their sequence numbers so
	// a replica can deduplicate retransmissions and order a merge
	// deterministically; replay drops duplicate sequences, keeping the
	// highest-term occurrence.
	Seq uint64 `json:"seq,omitempty"`
	// Term is the leadership term the record was written under. A
	// facility's term increases by one at every failover/handback, so
	// after a partition heals, conflicting records for the same
	// sequence resolve to the higher term.
	Term uint64 `json:"term,omitempty"`
	// Job is the job ID.
	Job string `json:"job"`
	// Tenant identifies the submitter (on the PENDING record).
	Tenant string `json:"tenant,omitempty"`
	// State is the new lifecycle state.
	State State `json:"state"`
	// Spec is the admitted request (on the PENDING record).
	Spec *JobSpec `json:"spec,omitempty"`
	// TraceID travels with the PENDING record so a restarted daemon
	// re-roots the job's spans into the same trace, stitching attempts
	// together instead of starting a fresh, disconnected trace.
	TraceID string `json:"trace_id,omitempty"`
	// Attempt counts executions begun (on RUNNING records).
	Attempt int `json:"attempt,omitempty"`
	// Result is the runner's output (on the DONE record).
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries the failure message (on FAILED records).
	Error string `json:"error,omitempty"`
}

// WALStats counts append and fsync activity; the group-commit test
// asserts Syncs stays well below Appends under concurrent load.
type WALStats struct {
	// Appends is the number of records durably acknowledged.
	Appends int64
	// Syncs is the number of fsync calls issued — one per commit batch.
	Syncs int64
}

// WAL is the append-only, fsynced job journal. Every Append survives
// a kill -9 of the daemon; OpenWAL replays what the previous
// incarnation had admitted.
//
// The file is a jsonl.Log, so appends are group-committed: one fsync
// serves every record that arrived while the previous one ran, and
// Append still returns only after its record is on disk (and, when a
// mirror is attached, after the mirror has acknowledged it). Records
// can land out of Seq order; FoldWALRecords sorts them.
type WAL struct {
	log *jsonl.Log

	mu     sync.Mutex
	seq    uint64
	term   uint64
	mirror func(WALRecord) error

	appends atomic.Int64
}

// OpenWAL opens (creating if needed) the job store under dir and
// replays its records into the last-known state of every job, in
// first-submission order. A torn final record is cut off the file.
func OpenWAL(dir string) (*WAL, []*Job, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("sched: wal dir: %w", err)
	}
	var recs []WALRecord
	file, err := jsonl.Open(filepath.Join(dir, WALFileName), decodeWALRecord(&recs))
	if err != nil {
		return nil, nil, fmt.Errorf("sched: open wal: %w", err)
	}
	w := &WAL{log: file}
	for _, rec := range recs {
		if rec.Seq > w.seq {
			w.seq = rec.Seq
		}
		if rec.Term > w.term {
			w.term = rec.Term
		}
	}
	return w, FoldWALRecords(recs), nil
}

// SetTerm stamps subsequent records with the given leadership term.
func (w *WAL) SetTerm(term uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.term = term
}

// Term returns the current leadership term.
func (w *WAL) Term() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.term
}

// LastSeq returns the sequence number of the most recent record.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// SetMirror attaches the replication hook: it is called with every
// record, after the record is durable locally and before Append
// returns — a cluster node uses it to replicate the record to its
// peer(s) synchronously, so admission is only confirmed once the
// record is acknowledged remotely (or the replicator has explicitly
// degraded to async catch-up during a partition).
func (w *WAL) SetMirror(mirror func(WALRecord) error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mirror = mirror
}

// Stats returns append/fsync counters.
func (w *WAL) Stats() WALStats {
	return WALStats{Appends: w.appends.Load(), Syncs: w.log.Syncs()}
}

// Append writes one record, returning after it is fsynced (as part of
// a group-commit batch) and mirrored.
func (w *WAL) Append(rec WALRecord) error {
	if rec.TimeUnixNano == 0 {
		rec.TimeUnixNano = time.Now().UnixNano()
	}
	w.mu.Lock()
	w.seq++
	rec.Seq = w.seq
	if rec.Term == 0 {
		rec.Term = w.term
	}
	mirror := w.mirror
	line, err := json.Marshal(rec)
	if err != nil {
		w.seq--
		w.mu.Unlock()
		return fmt.Errorf("sched: encode wal record: %w", err)
	}
	w.mu.Unlock()

	if _, err := w.log.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sched: append wal: %w", err)
	}
	w.appends.Add(1)
	if mirror != nil {
		if err := mirror(rec); err != nil {
			return fmt.Errorf("sched: mirror wal record: %w", err)
		}
	}
	return nil
}

// Close flushes any pending batch and releases the journal file.
func (w *WAL) Close() error {
	return w.log.Close()
}

// ReadWALRecords parses a journal into its records under the jsonl
// torn-tail rule: a torn final record is dropped, and corruption
// anywhere else is an error, because silently skipping interior
// records could resurrect an already-completed job.
func ReadWALRecords(r io.Reader) ([]WALRecord, error) {
	var recs []WALRecord
	if _, err := jsonl.Read(r, decodeWALRecord(&recs)); err != nil {
		return nil, fmt.Errorf("sched: wal: %w", err)
	}
	return recs, nil
}

// decodeWALRecord is the jsonl callback collecting WAL records.
func decodeWALRecord(recs *[]WALRecord) func([]byte) error {
	return func(line []byte) error {
		var rec WALRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Job == "" {
			return errors.New("record without job id")
		}
		*recs = append(*recs, rec)
		return nil
	}
}

// ReplayWAL folds a journal into each job's latest state, in
// first-submission order.
func ReplayWAL(r io.Reader) ([]*Job, error) {
	recs, err := ReadWALRecords(r)
	if err != nil {
		return nil, err
	}
	return FoldWALRecords(recs), nil
}

// FoldWALRecords merges a record stream into each job's latest state,
// in first-submission order. The fold is deterministic even when the
// stream is a post-partition merge of two divergent histories:
//
//   - records are ordered by sequence number (legacy records without
//     one keep their file position, which sorts them first — they can
//     only come from a pre-federation WAL prefix);
//   - duplicate sequence numbers — retransmissions, or the same slot
//     written under two leaders across a partition — collapse to one
//     winner: the highest term, ties broken by the later occurrence
//     (last-writer-wins, safe because duplicated slots only ever carry
//     idempotent status records for the same job).
func FoldWALRecords(recs []WALRecord) []*Job {
	ordered := make([]WALRecord, len(recs))
	copy(ordered, recs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })

	byID := make(map[string]*Job)
	var order []string
	// winner per duplicated sequence slot: highest term, then latest.
	lastTerm := make(map[uint64]uint64)
	for _, rec := range ordered {
		if rec.Seq != 0 {
			if t, dup := lastTerm[rec.Seq]; !dup || rec.Term >= t {
				lastTerm[rec.Seq] = rec.Term
			}
		}
	}
	for _, rec := range ordered {
		if rec.Seq != 0 && rec.Term < lastTerm[rec.Seq] {
			continue // lost the slot to a higher term
		}
		job, ok := byID[rec.Job]
		if !ok {
			job = &Job{ID: rec.Job}
			byID[rec.Job] = job
			order = append(order, rec.Job)
		}
		applyRecord(job, rec)
	}
	jobs := make([]*Job, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, byID[id])
	}
	return jobs
}

// applyRecord folds one transition into the job. Submit queues a job
// before it journals the admission, so a worker's RUNNING or terminal
// record can take a lower Seq than the admission record. A late
// admission record (attempt 0) still adds what it carries, but it
// never moves the job back to PENDING.
func applyRecord(job *Job, rec WALRecord) {
	late := rec.State == StatePending && rec.Attempt == 0 &&
		(job.State == StateRunning || job.State.Terminal())
	if !late {
		job.State = rec.State
	}
	if rec.Tenant != "" {
		job.Tenant = rec.Tenant
	}
	if rec.Spec != nil {
		job.Spec = *rec.Spec
	}
	if rec.TraceID != "" {
		job.TraceID = rec.TraceID
	}
	if rec.Attempt > job.Attempts {
		job.Attempts = rec.Attempt
	}
	switch rec.State {
	case StatePending:
		if job.SubmittedUnixNano == 0 {
			job.SubmittedUnixNano = rec.TimeUnixNano
		}
	case StateRunning:
		job.StartedUnixNano = rec.TimeUnixNano
	case StateDone:
		job.Result = rec.Result
		job.FinishedUnixNano = rec.TimeUnixNano
	case StateFailed:
		job.Error = rec.Error
		job.FinishedUnixNano = rec.TimeUnixNano
	case StateCancelled:
		job.FinishedUnixNano = rec.TimeUnixNano
	}
}

// highestJobSeq returns the largest numeric suffix among replayed job
// IDs so a restarted daemon keeps allocating fresh ones.
func highestJobSeq(jobs []*Job) int {
	max := 0
	for _, j := range jobs {
		if i := strings.LastIndexByte(j.ID, '-'); i >= 0 {
			if n, err := strconv.Atoi(j.ID[i+1:]); err == nil && n > max {
				max = n
			}
		}
	}
	return max
}

// sortJobsBySubmission orders jobs oldest-first for re-enqueueing.
func sortJobsBySubmission(jobs []*Job) {
	sort.SliceStable(jobs, func(i, j int) bool {
		return jobs[i].SubmittedUnixNano < jobs[j].SubmittedUnixNano
	})
}
