// Checkpoint journal: crash-recoverable workflows. Every task
// transition is appended as one JSON line to an attached journal
// writer, so a restarted orchestrator (the icectl client after a
// crash) can replay the journal, mark completed cells as done, and
// Resume the notebook from the first unfinished task instead of
// re-running commands that already moved physical liquid.

package workflow

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ice/internal/jsonl"
)

// TaskRecord is one checkpoint journal entry: a task transition with
// its outcome so far. Records are append-only; the latest record per
// task wins on replay.
type TaskRecord struct {
	// Workflow names the notebook the record belongs to.
	Workflow string `json:"workflow"`
	// TaskID identifies the cell (A–E in the paper's workflows).
	TaskID string `json:"task"`
	// Status is the Status string ("running", "OK", "FAILED", ...).
	Status string `json:"status"`
	// Output is the cell output for completed tasks.
	Output string `json:"output,omitempty"`
	// Error carries the failure message for failed tasks.
	Error string `json:"error,omitempty"`
	// Attempts counts executions so far.
	Attempts int `json:"attempts,omitempty"`
	// DurationMS is the wall time spent, in milliseconds.
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// SetJournal attaches an append-only writer (e.g. a jsonl.Log) that
// receives one JSON line per task transition during Execute.
// Pass nil to detach. The writer must be safe for use from the
// notebook's executing goroutine only; the notebook serializes writes.
func (nb *Notebook) SetJournal(w io.Writer) {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	nb.journal = w
}

// journalTask appends the task's current result to the journal, if one
// is attached. Journal write errors are recorded in the transcript but
// do not fail the workflow: losing a checkpoint must not abort an
// experiment that is succeeding.
func (nb *Notebook) journalTask(id string) {
	nb.mu.Lock()
	w := nb.journal
	var rec TaskRecord
	if r, ok := nb.results[id]; ok {
		rec = TaskRecord{
			Workflow:   nb.Name,
			TaskID:     id,
			Status:     r.Status.String(),
			Output:     r.Output,
			Attempts:   r.Attempts,
			DurationMS: r.Duration.Milliseconds(),
		}
		if r.Err != nil {
			rec.Error = r.Err.Error()
		}
	}
	nb.mu.Unlock()
	if w == nil || rec.TaskID == "" {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		nb.appendTranscript(fmt.Sprintf("checkpoint: encode %s: %v", id, err))
		return
	}
	line = append(line, '\n')
	if _, err := w.Write(line); err != nil {
		nb.appendTranscript(fmt.Sprintf("checkpoint: write %s: %v", id, err))
	}
}

// ReadJournal parses a checkpoint journal back into records under the
// jsonl torn-tail rule: a torn final record (a crash mid-write) is
// dropped, and corruption anywhere else is an error.
func ReadJournal(r io.Reader) ([]TaskRecord, error) {
	var records []TaskRecord
	if _, err := jsonl.Read(r, jsonl.Collect(&records)); err != nil {
		return nil, fmt.Errorf("workflow: journal: %w", err)
	}
	return records, nil
}

// Restore marks tasks recorded as OK in the journal as already
// completed, so Execute skips them. The latest record per task wins.
// It returns how many tasks were restored. Records for other
// workflows (mismatched name) or unknown task IDs are ignored.
func (nb *Notebook) Restore(records []TaskRecord) int {
	latest := make(map[string]TaskRecord)
	for _, rec := range records {
		if rec.Workflow != "" && rec.Workflow != nb.Name {
			continue
		}
		latest[rec.TaskID] = rec
	}
	nb.mu.Lock()
	defer nb.mu.Unlock()
	restored := 0
	for id, rec := range latest {
		r, ok := nb.results[id]
		if !ok || rec.Status != OK.String() {
			continue
		}
		r.Status = OK
		r.Output = rec.Output
		r.Err = nil
		r.Attempts = rec.Attempts
		r.Duration = time.Duration(rec.DurationMS) * time.Millisecond
		r.Restored = true
		restored++
	}
	return restored
}

// Resume restores completed tasks from journal records and executes
// the rest — the crash-recovery entry point: read the journal from the
// previous run with ReadJournal, attach a fresh journal with
// SetJournal, then Resume.
func (nb *Notebook) Resume(ctx context.Context, records []TaskRecord) error {
	nb.Restore(records)
	return nb.Execute(ctx)
}
