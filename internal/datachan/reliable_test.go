package datachan

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ice/internal/telemetry"
	"ice/internal/testutil"
)

// flakyConn fails every Read after roughly budget bytes have been
// delivered, standing in for a WAN killing the stream mid-transfer.
// budget < 0 means unlimited.
type flakyConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

func (c *flakyConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.budget == 0 {
		c.mu.Unlock()
		c.Conn.Close()
		return 0, fmt.Errorf("flaky: injected read failure")
	}
	limit := len(p)
	if c.budget > 0 && c.budget < limit {
		limit = c.budget
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p[:limit])
	c.mu.Lock()
	if c.budget > 0 {
		c.budget -= n
	}
	c.mu.Unlock()
	return n, err
}

// reliableHarness exports a temp dir over loopback TCP and returns a
// ReliableMount whose successive dials draw read budgets from budgets
// (exhausted budgets repeat the last entry; empty = all unlimited). It
// also returns the export dir and a slice of live client conns so
// tests can kill the active connection.
type reliableHarness struct {
	dir   string
	rm    *ReliableMount
	mu    sync.Mutex
	conns []net.Conn
}

func newReliableHarness(t *testing.T, budgets ...int) *reliableHarness {
	t.Helper()
	dir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExport(dir, l)
	go exp.Serve()
	t.Cleanup(func() { exp.Close() })

	h := &reliableHarness{dir: dir}
	dialCount := 0
	h.rm = NewReliableMount(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		budget := -1
		if len(budgets) > 0 {
			i := dialCount
			if i >= len(budgets) {
				i = len(budgets) - 1
			}
			budget = budgets[i]
		}
		dialCount++
		fc := &flakyConn{Conn: conn, budget: budget}
		h.mu.Lock()
		h.conns = append(h.conns, fc)
		h.mu.Unlock()
		return fc, nil
	})
	h.rm.Backoff = time.Millisecond
	h.rm.MaxBackoff = 5 * time.Millisecond
	t.Cleanup(func() { h.rm.Close() })
	return h
}

// killActive closes the most recently dialed connection.
func (h *reliableHarness) killActive() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.conns) > 0 {
		h.conns[len(h.conns)-1].Close()
	}
}

// write publishes a file on the share atomically (see testutil.WriteAtomic).
// It may run on a goroutine other than the test's, so it reports
// failure with Error rather than Fatal.
func (h *reliableHarness) write(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := testutil.WriteAtomic(filepath.Join(h.dir, name), data); err != nil {
		t.Error(err)
	}
}

func TestReliableMountRedialsAfterKill(t *testing.T) {
	h := newReliableHarness(t)
	h.write(t, "f.mpt", []byte("payload"))
	if _, err := h.rm.List(); err != nil {
		t.Fatal(err)
	}
	h.killActive()
	data, err := h.rm.ReadAll("f.mpt")
	if err != nil {
		t.Fatalf("ReadAll across kill: %v", err)
	}
	if string(data) != "payload" {
		t.Errorf("data = %q", data)
	}
	if s := h.rm.Stats(); s.Redials == 0 {
		t.Errorf("no redial counted: %+v", s)
	}
}

func TestReliableMountResumesFromVerifiedOffset(t *testing.T) {
	// First connection dies after ~40 KB delivered; the read must
	// resume from the last verified 16 KB chunk boundary, not restart.
	h := newReliableHarness(t, 40_000, -1)
	metrics := telemetry.NewCollector()
	h.rm.SetMetrics(metrics)
	h.rm.ChunkBytes = 16 * 1024
	big := make([]byte, 100*1024)
	for i := range big {
		big[i] = byte(i * 13)
	}
	h.write(t, "big.bin", big)

	data, err := h.rm.ReadAll("big.bin")
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(data, big) {
		t.Fatal("resumed read returned wrong bytes")
	}
	s := h.rm.Stats()
	if s.Redials == 0 || s.Resumes == 0 {
		t.Fatalf("reliability machinery idle: %+v", s)
	}
	if s.BytesResumed < 16*1024 {
		t.Errorf("BytesResumed = %d, want at least one verified chunk", s.BytesResumed)
	}
	for counter, want := range map[string]int64{
		"datachan.redials":       s.Redials,
		"datachan.resumes":       s.Resumes,
		"datachan.bytes_resumed": s.BytesResumed,
	} {
		if got := metrics.CounterValue(counter); got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}
}

// killNthWriteConn closes the connection on its nth Write, before any
// bytes go out — the netsim loss model, where losing one pipelined
// chunk request tears the whole stream down before the first response
// lands.
type killNthWriteConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	fatal  int
}

func (c *killNthWriteConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	kill := c.writes == c.fatal
	c.mu.Unlock()
	if kill {
		c.Conn.Close()
		return 0, fmt.Errorf("killnth: injected write loss")
	}
	return c.Conn.Write(p)
}

func TestReliableMountDegradesWindowUnderBurstLoss(t *testing.T) {
	// Every connection dies on its third write: the size prefetch and
	// the first chunk request get through, the second chunk request
	// kills the stream. A pipelined window fires its requests back to
	// back, so at any width ≥ 2 the connection is torn down before the
	// first chunk's response arrives — zero verified progress, forever.
	// Only the zero-progress-streak fallback to a stop-and-wait window
	// (one request, one response, one verified chunk per connection)
	// lets the transfer complete.
	dir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExport(dir, l)
	go exp.Serve()
	t.Cleanup(func() { exp.Close() })

	rm := NewReliableMount(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		return &killNthWriteConn{Conn: conn, fatal: 3}, nil
	})
	t.Cleanup(func() { rm.Close() })
	rm.Backoff = time.Millisecond
	rm.MaxBackoff = 5 * time.Millisecond
	rm.MaxRetries = 5
	rm.ChunkBytes = 512
	rm.Readahead = 8

	big := make([]byte, 5*512)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := os.WriteFile(filepath.Join(dir, "burst.bin"), big, 0o644); err != nil {
		t.Fatal(err)
	}

	data, err := rm.ReadAll("burst.bin")
	if err != nil {
		t.Fatalf("ReadAll under burst loss: %v (a fixed-width window starves: every burst dies on its second chunk request before the first response lands)", err)
	}
	if !bytes.Equal(data, big) {
		t.Fatal("degraded-window read returned wrong bytes")
	}
	if s := rm.Stats(); s.Resumes == 0 {
		t.Errorf("transfer completed without resuming from a verified offset: %+v", s)
	}
}

func TestReliableMountVerifiedRead(t *testing.T) {
	h := newReliableHarness(t)
	content := []byte("EC-Lab ASCII FILE\nmode 2\n")
	h.write(t, "cv.mpt", content)
	data, err := h.rm.ReadAllVerified("cv.mpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, content) {
		t.Errorf("data = %q", data)
	}
	sum, size, err := h.rm.Checksum("cv.mpt")
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(content)
	if sum != hex.EncodeToString(want[:]) || size != int64(len(content)) {
		t.Errorf("Checksum = %s/%d", sum, size)
	}
}

func TestReliableMountRemoteErrorsNotRetried(t *testing.T) {
	h := newReliableHarness(t)
	_, err := h.rm.Stat("missing.mpt")
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if s := h.rm.Stats(); s.Redials != 0 {
		t.Errorf("remote error triggered %d redials", s.Redials)
	}
}

func TestReliableMountWaitForAcrossKill(t *testing.T) {
	h := newReliableHarness(t)
	if _, err := h.rm.List(); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		h.killActive()
		h.write(t, "run.mpt", []byte("settled measurement data\n"))
	}()
	data, name, err := h.rm.WaitFor("run", 10*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if name != "run.mpt" || len(data) == 0 {
		t.Errorf("WaitFor = %q (%d bytes)", name, len(data))
	}
}

func TestReliableWatcherExactlyOnceAcrossOutage(t *testing.T) {
	h := newReliableHarness(t)
	h.write(t, "before.mpt", []byte("pre-existing"))
	w := h.rm.Watch(10 * time.Millisecond)
	defer w.Stop()
	time.Sleep(40 * time.Millisecond) // prime

	h.write(t, "first.mpt", []byte("one"))
	ev := waitEvent(t, w)
	if ev.Type != Created || ev.File.Name != "first.mpt" {
		t.Fatalf("event = %v %q", ev.Type, ev.File.Name)
	}

	// Outage: kill the connection, create a file while down.
	h.killActive()
	h.write(t, "during.mpt", []byte("two"))
	ev = waitEvent(t, w)
	if ev.Type != Created || ev.File.Name != "during.mpt" {
		t.Fatalf("post-outage event = %v %q", ev.Type, ev.File.Name)
	}

	// No duplicates: nothing further pending, and the primed or
	// already-reported files were not re-announced after the re-list.
	select {
	case ev := <-w.Events():
		t.Fatalf("duplicate event after reconnect: %v %q", ev.Type, ev.File.Name)
	case <-time.After(100 * time.Millisecond):
	}
	if s := h.rm.Stats(); s.Redials == 0 {
		t.Error("watcher rode out the outage without a redial?")
	}
	if w.Err() != nil {
		t.Errorf("self-healing watcher recorded error: %v", w.Err())
	}
}

func TestReliableMountClosed(t *testing.T) {
	h := newReliableHarness(t)
	if _, err := h.rm.List(); err != nil {
		t.Fatal(err)
	}
	if err := h.rm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.rm.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
	if _, err := h.rm.List(); !errors.Is(err, ErrReliableMountClosed) {
		t.Errorf("List after close = %v", err)
	}
	if _, err := h.rm.ReadAll("f"); !errors.Is(err, ErrReliableMountClosed) {
		t.Errorf("ReadAll after close = %v", err)
	}
}

func TestReliableMountConcurrentUse(t *testing.T) {
	h := newReliableHarness(t)
	h.write(t, "f", bytes.Repeat([]byte("z"), 4096))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if i == 0 && j == 5 {
					h.killActive()
				}
				if _, err := h.rm.ReadAllVerified("f"); err != nil {
					t.Errorf("ReadAllVerified: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestReliableMountDialFailureExhaustsRetries(t *testing.T) {
	rm := NewReliableMount(func() (net.Conn, error) {
		return nil, fmt.Errorf("refused")
	})
	rm.Backoff = time.Millisecond
	rm.MaxRetries = 2
	defer rm.Close()
	if _, err := rm.List(); err == nil {
		t.Fatal("List with failing dialer succeeded")
	}
}
