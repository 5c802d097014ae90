// Package jsonl is the one durable append-only log format in the tree:
// one JSON value per '\n'-terminated line. The gateway WAL, replica
// streams, workflow checkpoint journals, the control-channel audit and
// the span export all read and append through it, so they share one
// torn-tail rule (Read), one fsync path (Log) and one crash repair
// (Open).
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// maxLine is the longest line Read accepts.
const maxLine = 16 << 20

// ErrClosed is returned by Write after Close.
var ErrClosed = errors.New("jsonl: log closed")

// Read calls fn with every line of r, in order, and returns the byte
// offset where the last good line ends. The torn-tail rule:
//
//   - a line is complete only once its '\n' is written; an unterminated
//     final line is the write a crash cut short, and is dropped unseen;
//   - blank lines are skipped;
//   - a line fn rejects is dropped when no non-blank line follows it (a
//     torn tail) and is an error otherwise (corruption mid-file).
//
// fn receives the line without surrounding whitespace and must not
// retain it. A nil fn accepts every complete line.
func Read(r io.Reader, fn func(line []byte) error) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	sc.Split(scanLine)
	var off, end int64
	var bad error
	for n := 1; sc.Scan(); n++ {
		raw := sc.Bytes()
		off += int64(len(raw))
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		if bad != nil {
			return 0, bad
		}
		if raw[len(raw)-1] != '\n' {
			break
		}
		if fn != nil {
			if err := fn(line); err != nil {
				bad = fmt.Errorf("jsonl: line %d: %w", n, err)
				continue
			}
		}
		end = off
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("jsonl: %w", err)
	}
	return end, nil
}

// scanLine is bufio.ScanLines keeping the '\n', so Read can count
// bytes and tell a complete last line from a torn one.
func scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Collect returns a Read callback that decodes each line into a T and
// appends it to *dst.
func Collect[T any](dst *[]T) func(line []byte) error {
	return func(line []byte) error {
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		*dst = append(*dst, v)
		return nil
	}
}

// batch is one group-commit unit: the lines of every Write that
// arrived while the previous batch was on its way to disk, flushed
// with a single write+fsync.
type batch struct {
	buf    []byte
	writes int
	done   chan struct{}
	err    error
}

// Log is an append-only JSONL file. Each Write is one or more whole
// lines and returns only after they are written and fsynced.
//
// Writes are group-committed: the Write that opens a batch leads it,
// waits for the previous flush, and flushes the batch with one
// write+fsync while later Writes join it and block until it is done.
// Under concurrency one fsync serves many Writes without weakening
// durability.
type Log struct {
	// flushMu serialises flushes in batch order: a batch forms while
	// the previous one holds it, and is detached only once its leader
	// takes it.
	flushMu sync.Mutex
	// size is the length of the durable prefix; a failed flush is cut
	// back to it so the next line starts on a line boundary. broken is
	// set when that cut fails: the file can no longer be appended to.
	// Both are guarded by flushMu.
	size   int64
	broken error

	mu  sync.Mutex
	f   *os.File
	cur *batch

	syncs atomic.Int64
}

// Open opens (creating if needed) the log at path, passes its records
// to fn under Read's torn-tail rule, cuts off whatever Read did not
// accept, and returns the log ready for append: the file then holds
// exactly the records fn received.
func Open(path string, fn func(line []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	var end int64
	fi, err := f.Stat()
	if err == nil && fi.Size() > 0 {
		if end, err = Read(f, fn); err == nil && end < fi.Size() {
			err = f.Truncate(end)
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Log{f: f, size: end}, nil
}

// Write appends p, which must end in '\n', and returns once it is
// durable. A write or fsync error is returned, and the failed lines are
// cut off the file.
func (l *Log) Write(p []byte) (int, error) {
	if len(p) == 0 || p[len(p)-1] != '\n' {
		return 0, errors.New("jsonl: write is not whole lines")
	}
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	b := l.cur
	lead := b == nil
	if lead {
		// The leader's lines are flushed in place: capping the capacity
		// makes a joining Write copy them before appending, so p is
		// never written to.
		b = &batch{buf: p[:len(p):len(p)], done: make(chan struct{})}
		l.cur = b
	} else {
		b.buf = append(b.buf, p...)
	}
	b.writes++
	l.mu.Unlock()

	if lead {
		l.flush(b)
	} else {
		<-b.done
	}
	if b.err != nil {
		return 0, b.err
	}
	return len(p), nil
}

// flush detaches b and commits it, unless Close got the flush lock
// first: Close detaches and commits the current batch itself.
func (l *Log) flush(b *batch) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.cur == b {
		l.cur = nil
	}
	f := l.f
	l.mu.Unlock()
	if f != nil {
		l.commit(f, b)
	}
}

// commit writes and fsyncs b, then releases its writers. flushMu is
// held.
func (l *Log) commit(f *os.File, b *batch) {
	defer close(b.done)
	if l.broken != nil {
		b.err = l.broken
		return
	}
	_, err := f.Write(b.buf)
	if err == nil {
		l.syncs.Add(1)
		err = f.Sync()
	}
	if err != nil {
		b.err = fmt.Errorf("jsonl: append: %w", err)
		if terr := f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("jsonl: cut failed append: %w (after %v)", terr, err)
		}
		return
	}
	l.size += int64(len(b.buf))
}

// Syncs returns the number of fsyncs issued.
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// Stall holds back every flush until resume is called, so Writes issued
// meanwhile queue into one batch; queued reports how many have. Tests
// use it to make group commit deterministic.
func (l *Log) Stall() (queued func() int, resume func()) {
	l.flushMu.Lock()
	queued = func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.cur == nil {
			return 0
		}
		return l.cur.writes
	}
	return queued, l.flushMu.Unlock
}

// Close flushes any pending batch (its Writes see the outcome) and
// closes the file. Later Writes return ErrClosed.
func (l *Log) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	f, b := l.f, l.cur
	l.f, l.cur = nil, nil
	l.mu.Unlock()
	if f == nil {
		return nil
	}
	if b != nil {
		l.commit(f, b)
	}
	return f.Close()
}
