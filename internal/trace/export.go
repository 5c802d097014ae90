package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"ice/internal/jsonl"
)

// Exporter receives finished span records. Export must be safe for
// concurrent callers and must not block span completion for long.
type Exporter interface {
	Export(Record)
}

// EncodeSpan renders one record as a single JSONL line (no trailing
// newline).
func EncodeSpan(rec Record) ([]byte, error) {
	return json.Marshal(rec)
}

// DecodeSpan parses one JSONL line back into a record, rejecting
// structurally invalid spans so a corrupted export cannot poison the
// analyzer. This is the fuzz target's entry point.
func DecodeSpan(line []byte) (Record, error) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Record{}, err
	}
	if dec.More() {
		return Record{}, errors.New("trailing data after span record")
	}
	if rec.TraceID == "" || rec.SpanID == "" {
		return Record{}, errors.New("span record missing trace or span ID")
	}
	if len(rec.TraceID) != 32 || !isHex(rec.TraceID) {
		return Record{}, fmt.Errorf("bad trace ID %q", rec.TraceID)
	}
	if len(rec.SpanID) != 16 || !isHex(rec.SpanID) {
		return Record{}, fmt.Errorf("bad span ID %q", rec.SpanID)
	}
	if rec.Parent != "" && (len(rec.Parent) != 16 || !isHex(rec.Parent)) {
		return Record{}, fmt.Errorf("bad parent ID %q", rec.Parent)
	}
	if rec.End.Before(rec.Start) {
		return Record{}, errors.New("span ends before it starts")
	}
	return rec, nil
}

// ReadSpans parses a JSONL export under the jsonl torn-tail rule: a
// crash mid-write loses at most the final record, blank lines are
// skipped, and any other malformed line is an error.
func ReadSpans(r io.Reader) ([]Record, error) {
	var recs []Record
	_, err := jsonl.Read(r, func(line []byte) error {
		rec, err := DecodeSpan(line)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("trace: spans: %w", err)
	}
	return recs, nil
}

// JSONLExporter batches finished spans and appends them to a JSONL
// file. Export only buffers; each flush — when the buffer reaches
// 64 KiB, every flush interval, and on Flush/Close — is one fsynced
// jsonl.Log write ending on a record boundary, so the flush interval
// bounds how much a crash can lose. A write error drops the batch
// (counted in Stats) rather than blocking experiments.
type JSONLExporter struct {
	mu       sync.Mutex
	log      *jsonl.Log
	buf      []byte
	maxBatch int
	dropped  int64
	exported int64
	closed   bool

	flushEvery time.Duration
	stopFlush  chan struct{}
	flushDone  chan struct{}
}

// NewJSONLExporter opens (appending) the export file, cutting off a
// record a crashed predecessor left torn. flushEvery ≤ 0 disables the
// background flusher; batches then flush only when full or on
// Flush/Close.
func NewJSONLExporter(path string, flushEvery time.Duration) (*JSONLExporter, error) {
	file, err := jsonl.Open(path, nil)
	if err != nil {
		return nil, err
	}
	e := &JSONLExporter{
		log:        file,
		maxBatch:   64 * 1024,
		flushEvery: flushEvery,
	}
	if flushEvery > 0 {
		e.stopFlush = make(chan struct{})
		e.flushDone = make(chan struct{})
		go e.flushLoop()
	}
	return e, nil
}

func (e *JSONLExporter) flushLoop() {
	defer close(e.flushDone)
	t := time.NewTicker(e.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.Flush()
		case <-e.stopFlush:
			return
		}
	}
}

// Export implements Exporter.
func (e *JSONLExporter) Export(rec Record) {
	line, err := EncodeSpan(rec)
	if err != nil {
		e.mu.Lock()
		e.dropped++
		e.mu.Unlock()
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		e.dropped++
		return
	}
	e.buf = append(e.buf, line...)
	e.buf = append(e.buf, '\n')
	e.exported++
	if len(e.buf) >= e.maxBatch {
		e.flushLocked()
	}
}

// Flush writes any buffered records to disk.
func (e *JSONLExporter) Flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushLocked()
}

func (e *JSONLExporter) flushLocked() {
	if len(e.buf) == 0 {
		return
	}
	if _, err := e.log.Write(e.buf); err != nil {
		e.dropped++
	}
	e.buf = e.buf[:0]
}

// Stats reports exporter health.
func (e *JSONLExporter) Stats() (exported, dropped int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.exported, e.dropped
}

// Close flushes and closes the file.
func (e *JSONLExporter) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.flushLocked()
	stop := e.stopFlush
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-e.flushDone
	}
	return e.log.Close()
}

// FuncExporter adapts a function to Exporter (handy in tests).
type FuncExporter func(Record)

// Export implements Exporter.
func (f FuncExporter) Export(rec Record) { f(rec) }
