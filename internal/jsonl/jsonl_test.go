package jsonl

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func line(n int, s string) string { return fmt.Sprintf(`{"n":%d,"s":%q}`, n, s) + "\n" }

// TestReadTornTailRule pins the one rule every log in the tree replays
// under.
func TestReadTornTailRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		want    []int
		end     int
		wantErr bool
	}{
		{name: "empty", in: "", want: nil, end: 0},
		{name: "whole lines", in: line(1, "a") + line(2, "b"), want: []int{1, 2}, end: 2 * len(line(1, "a"))},
		{name: "blank lines skipped", in: "\n" + line(1, "a") + "  \n\n" + line(2, "b"), want: []int{1, 2}, end: 1 + len(line(1, "a")) + 4 + len(line(2, "b"))},
		{name: "torn tail dropped", in: line(1, "a") + `{"n":2,"s":"b`, want: []int{1}, end: len(line(1, "a"))},
		{name: "unterminated but valid tail dropped", in: line(1, "a") + `{"n":2}`, want: []int{1}, end: len(line(1, "a"))},
		{name: "bad last line dropped", in: line(1, "a") + "garbage\n\n", want: []int{1}, end: len(line(1, "a"))},
		{name: "trailing blanks not counted", in: line(1, "a") + "\n \n", want: []int{1}, end: len(line(1, "a"))},
		{name: "bad line mid-file", in: line(1, "a") + "garbage\n" + line(2, "b"), wantErr: true},
		{name: "bad line then torn tail", in: line(1, "a") + "garbage\n" + `{"n":`, wantErr: true},
		{name: "CRLF", in: strings.TrimSuffix(line(1, "a"), "\n") + "\r\n", want: []int{1}, end: len(line(1, "a")) + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []rec
			end, err := Read(strings.NewReader(tc.in), Collect(&got))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("no error; read %+v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var ns []int
			for _, r := range got {
				ns = append(ns, r.N)
			}
			if !reflect.DeepEqual(ns, tc.want) || end != int64(tc.end) {
				t.Fatalf("read %v ending at %d, want %v ending at %d", ns, end, tc.want, tc.end)
			}
		})
	}
}

func TestReadLineCap(t *testing.T) {
	long := `{"s":"` + strings.Repeat("x", maxLine) + `"}` + "\n"
	if _, err := Read(strings.NewReader(long), nil); err == nil {
		t.Fatal("line over maxLine accepted")
	}
	fits := `{"s":"` + strings.Repeat("x", 1<<20) + `"}` + "\n"
	if end, err := Read(strings.NewReader(fits), nil); err != nil || end != int64(len(fits)) {
		t.Fatalf("1 MiB line: end %d, err %v", end, err)
	}
}

// TestOpenCrashAtEveryOffset cuts a log at every byte, as a kill -9 can:
// Open must return exactly the records complete by that byte, accept one
// more Write, and reopen with those records plus the new one.
func TestOpenCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	l, err := Open(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{{1, "alpha"}, {2, ""}, {3, "gamma γ"}}
	var ends []int
	size := 0
	for _, r := range want {
		ln := line(r.N, r.S)
		if _, err := l.Write([]byte(ln)); err != nil {
			t.Fatal(err)
		}
		size += len(ln)
		ends = append(ends, size)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != size {
		t.Fatalf("log holds %d bytes, want %d", len(data), size)
	}

	path := filepath.Join(dir, "cut.jsonl")
	for k := 0; k <= len(data); k++ {
		if err := os.WriteFile(path, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		var complete []rec
		for i, e := range ends {
			if e <= k {
				complete = append(complete, want[i])
			}
		}
		var got []rec
		l, err := Open(path, Collect(&got))
		if err != nil {
			t.Fatalf("cut at %d: open: %v", k, err)
		}
		if !reflect.DeepEqual(got, complete) {
			t.Fatalf("cut at %d: opened %+v, want %+v", k, got, complete)
		}
		if _, err := l.Write([]byte(line(9, "after"))); err != nil {
			t.Fatalf("cut at %d: write: %v", k, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got = nil
		l, err = Open(path, Collect(&got))
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", k, err)
		}
		l.Close()
		if want := append(complete, rec{9, "after"}); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: reopened %+v, want %+v", k, got, want)
		}
	}
}

// TestLogGroupCommit holds the flush while eight writers enqueue: all
// eight lines must land with one fsync.
func TestLogGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.jsonl")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	queued, resume := l.Stall()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := l.Write([]byte(line(g, "w"))); err != nil {
				t.Error(err)
			}
		}(g)
	}
	for queued() < writers {
		runtime.Gosched()
	}
	resume()
	wg.Wait()
	if s := l.Syncs(); s != 1 {
		t.Fatalf("%d writers took %d fsyncs, want 1", writers, s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []rec
	l, err = Open(path, Collect(&got))
	if err != nil || len(got) != writers {
		t.Fatalf("reopened %d records (err %v), want %d", len(got), err, writers)
	}
	l.Close()
}

func TestLogWriteErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.jsonl")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write([]byte(`{"n":1}`)); err == nil {
		t.Fatal("write without a trailing newline accepted")
	}
	if _, err := l.Write([]byte(line(1, "ok"))); err != nil {
		t.Fatal(err)
	}
	// The file failing under the log: the error reaches the writer, and
	// since the failed lines cannot be cut off, so does every later one.
	l.f.Close()
	if _, err := l.Write([]byte(line(2, "lost"))); err == nil {
		t.Fatal("write to a failed file returned nil")
	}
	if _, err := l.Write([]byte(line(3, "lost"))); err == nil {
		t.Fatal("write after an unrepaired failure returned nil")
	}
	l.Close()
	if _, err := l.Write([]byte(line(4, "closed"))); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after Close: %v, want ErrClosed", err)
	}
	var got []rec
	l, err = Open(path, Collect(&got))
	if err != nil || !reflect.DeepEqual(got, []rec{{1, "ok"}}) {
		t.Fatalf("reopened %+v (err %v), want only the acknowledged record", got, err)
	}
	l.Close()
}

// FuzzRead: on any input Read either fails or reports an end at a line
// boundary within the input, and re-reading that prefix accepts the
// same lines.
func FuzzRead(f *testing.F) {
	f.Add([]byte(line(1, "a") + line(2, "b")))
	f.Add([]byte(line(1, "a") + `{"n":2,"s":"b`))
	f.Add([]byte(line(1, "a") + "garbage\n" + line(2, "b")))
	f.Add([]byte("\n\n \r\n"))
	f.Add([]byte(`{"n":1}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var got []rec
		end, err := Read(bytes.NewReader(in), Collect(&got))
		if err != nil {
			return
		}
		if end < 0 || end > int64(len(in)) || (end > 0 && in[end-1] != '\n') {
			t.Fatalf("end %d is not a line boundary of %q", end, in)
		}
		var again []rec
		end2, err := Read(bytes.NewReader(in[:end]), Collect(&again))
		if err != nil || end2 != end || !reflect.DeepEqual(again, got) {
			t.Fatalf("prefix re-read: %+v end %d err %v; first read %+v end %d", again, end2, err, got, end)
		}
	})
}
