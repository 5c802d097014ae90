package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ice/internal/jsonl"
	"ice/internal/pyro"
)

// AuditFileName is the provenance journal's name inside the
// measurement directory — it travels the data channel like any
// measurement, so remote users can fetch the complete command history
// of their experiment.
const AuditFileName = "control_audit.jsonl"

// AuditEntry is one journaled control-channel call.
type AuditEntry struct {
	// Seq is the 1-based journal position.
	Seq int `json:"seq"`
	// TimeUnixNano is the dispatch wall time.
	TimeUnixNano int64 `json:"t"`
	// Object and Method identify the call.
	Object string `json:"object"`
	Method string `json:"method"`
	// Args are the raw JSON arguments, replayable verbatim.
	Args []json.RawMessage `json:"args,omitempty"`
}

// auditJournal appends entries to a sink line by line.
type auditJournal struct {
	mu  sync.Mutex
	seq int
	w   interface {
		Write(p []byte) (int, error)
	}
}

func (j *auditJournal) record(object, method string, args []json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	entry := AuditEntry{
		Seq:          j.seq,
		TimeUnixNano: time.Now().UnixNano(),
		Object:       object,
		Method:       method,
		Args:         args,
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	j.w.Write(append(line, '\n'))
}

// noJournalMethods are housekeeping calls excluded from the journal so
// replay reproduces the experiment, not the monitoring around it. The
// scan-side status reads join the potentiostat's: BusyScan/StatusScan
// are probe traffic and GetScanTiles is the steering client's
// high-frequency paging read.
var noJournalMethods = map[string]bool{
	"BusySP200": true, "StatusSP200": true, "Status": true,
	"ReadTemperature": true, "ReadPH": true, "RetainMeasurements": true,
	"Lookup": true, "List": true, "PendingBatches": true,
	"Position": true, "Battery": true,
	"BusyScan": true, "StatusScan": true, "GetScanTiles": true,
}

// EnableAudit starts journaling control-channel calls into
// AuditFileName in the measurement directory. Call after ServeControl.
func (a *ControlAgent) EnableAudit() error {
	a.mu.Lock()
	daemon := a.daemon
	a.mu.Unlock()
	if daemon == nil {
		return fmt.Errorf("core: control channel not serving yet")
	}
	return EnableDaemonAudit(daemon, a.cfg.MeasurementDir)
}

// EnableDaemonAudit journals a daemon's control-channel calls into
// AuditFileName inside dir — the agent-independent form, for stations
// (a labreg scan host, say) that serve a bare daemon without a
// ControlAgent around it.
func EnableDaemonAudit(daemon *pyro.Daemon, dir string) error {
	f, err := jsonl.Open(filepath.Join(dir, AuditFileName), nil)
	if err != nil {
		return err
	}
	journal := &auditJournal{w: f}
	daemon.Audit = func(object, method string, args []json.RawMessage) {
		if noJournalMethods[method] {
			return
		}
		journal.record(object, method, args)
	}
	return nil
}

// ParseAuditJournal decodes a journal fetched over the data channel
// under the jsonl torn-tail rule: a truncated final line (an in-flight
// transfer) is dropped, and corruption anywhere else is an error.
func ParseAuditJournal(data []byte) ([]AuditEntry, error) {
	var entries []AuditEntry
	if _, err := jsonl.Read(bytes.NewReader(data), jsonl.Collect(&entries)); err != nil {
		return nil, fmt.Errorf("core: audit journal: %w", err)
	}
	return entries, nil
}

// ReplayResult reports one replayed call.
type ReplayResult struct {
	Entry AuditEntry
	// Err is the replay-time error, nil on success.
	Err error
}

// ReplayJournal re-executes journal entries in order against a daemon
// — provenance-driven reproduction of a recorded experiment on a fresh
// (or the same) ICE. Raw JSON arguments are forwarded verbatim. It
// stops at the first error unless continueOnError is set, and returns
// the per-call outcomes.
func ReplayJournal(entries []AuditEntry, daemonURI pyro.URI, dialer pyro.Dialer, token string, continueOnError bool) ([]ReplayResult, error) {
	proxies := make(map[string]*pyro.Proxy)
	defer func() {
		for _, p := range proxies {
			p.Close()
		}
	}()
	results := make([]ReplayResult, 0, len(entries))
	for _, e := range entries {
		p, ok := proxies[e.Object]
		if !ok {
			var err error
			p, err = dialProxy(daemonURI.WithObject(e.Object), dialer, SessionOptions{Token: token}, 10*time.Minute)
			if err != nil {
				return results, fmt.Errorf("core: replay dial %s: %w", e.Object, err)
			}
			proxies[e.Object] = p
		}
		args := make([]any, len(e.Args))
		for i, raw := range e.Args {
			args[i] = raw // json.RawMessage marshals verbatim
		}
		_, err := p.Call(e.Method, args...)
		results = append(results, ReplayResult{Entry: e, Err: err})
		if err != nil && !continueOnError {
			return results, fmt.Errorf("core: replay seq %d %s.%s: %w", e.Seq, e.Object, e.Method, err)
		}
	}
	return results, nil
}
