package datachan

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ice/internal/testutil"
)

// TestRoundTripPoisonsOnShortRead injects a reply that promises more
// payload than it delivers: the mount must refuse all further use
// rather than reuse the desynchronized stream.
func TestRoundTripPoisonsOnShortRead(t *testing.T) {
	client, server := net.Pipe()
	m := NewMount(client)
	defer m.Close()
	go func() {
		var req request
		if err := readFrame(server, &req); err != nil {
			return
		}
		writeFrame(server, &reply{Payload: 1000})
		server.Write(make([]byte, 10)) // short: 10 of 1000 promised bytes
		server.Close()
	}()
	if _, _, err := m.ReadAt("x", 0, 1000); err == nil {
		t.Fatal("short read not surfaced")
	}
	if !m.Broken() {
		t.Fatal("mount not poisoned after short read")
	}
	if _, err := m.List(); !errors.Is(err, ErrMountBroken) {
		t.Fatalf("List on poisoned mount = %v, want ErrMountBroken", err)
	}
	if _, err := m.ReadAll("x"); !errors.Is(err, ErrMountBroken) {
		t.Fatalf("ReadAll on poisoned mount = %v, want ErrMountBroken", err)
	}
}

// TestRoundTripPoisonsOnCRCMismatch corrupts a payload byte in
// transit; the per-chunk CRC must catch it and poison the mount.
func TestRoundTripPoisonsOnCRCMismatch(t *testing.T) {
	client, server := net.Pipe()
	m := NewMount(client)
	defer m.Close()
	go func() {
		var req request
		if err := readFrame(server, &req); err != nil {
			return
		}
		// CRC of the true payload, but one byte flipped on the wire.
		writeFrame(server, &reply{Payload: 4, CRC: 0xdeadbeef})
		server.Write([]byte("data"))
		server.Close()
	}()
	if _, _, err := m.ReadAt("x", 0, 4); err == nil {
		t.Fatal("corrupted payload accepted")
	}
	if !m.Broken() {
		t.Fatal("mount not poisoned after CRC mismatch")
	}
}

// TestRemoteErrorsDoNotPoison confirms application-level errors leave
// the stream usable (it stays synchronized).
func TestRemoteErrorsDoNotPoison(t *testing.T) {
	_, m := startShare(t)
	_, err := m.Stat("missing.mpt")
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if m.Broken() {
		t.Fatal("remote error poisoned the mount")
	}
	if _, err := m.List(); err != nil {
		t.Fatalf("List after remote error: %v", err)
	}
}

// TestWatcherSurvivesTransientListError is the regression test for the
// watcher dying permanently on a single failed List: a share-side
// error within the grace window must not terminate it.
func TestWatcherSurvivesTransientListError(t *testing.T) {
	dir, m := startShare(t)
	w := m.Watch(5 * time.Millisecond)
	defer w.Stop()
	time.Sleep(20 * time.Millisecond) // prime

	// Break listings share-side (the transport stays healthy), then heal.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // several failing polls
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := testutil.WriteAtomic(filepath.Join(dir, "after.mpt"), []byte("recovered")); err != nil {
		t.Fatal(err)
	}

	ev := waitEvent(t, w)
	if ev.Type != Created || ev.File.Name != "after.mpt" {
		t.Fatalf("event after recovery = %v %q", ev.Type, ev.File.Name)
	}
	if w.Err() != nil {
		t.Errorf("watcher recorded error despite recovery: %v", w.Err())
	}
}

// TestWatcherGraceExpiry: errors persisting past the grace window do
// terminate the watcher, with the error recorded.
func TestWatcherGraceExpiry(t *testing.T) {
	dir, m := startShare(t)
	w := m.WatchGrace(5*time.Millisecond, 30*time.Millisecond)
	defer w.Stop()
	time.Sleep(20 * time.Millisecond)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-w.Events():
		if ok {
			for range w.Events() {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not stop after grace expiry")
	}
	if w.Err() == nil {
		t.Error("watcher stopped without recording the persistent error")
	}
}

// TestWaitForToleratesTransientListErrors is the regression test for
// WaitFor aborting on the first List error.
func TestWaitForToleratesTransientListErrors(t *testing.T) {
	dir, m := startShare(t)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		os.Mkdir(dir, 0o755)
		testutil.WriteAtomic(filepath.Join(dir, "late.mpt"), []byte("finally here\n"))
	}()
	data, name, err := m.WaitFor("late", 10*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatalf("WaitFor did not tolerate transient errors: %v", err)
	}
	if name != "late.mpt" || len(data) == 0 {
		t.Errorf("WaitFor = %q (%d bytes)", name, len(data))
	}
}

// TestWaitForContextCancel: the poll loop must abort promptly on
// cancellation rather than busy-sleep to its deadline.
func TestWaitForContextCancel(t *testing.T) {
	_, m := startShare(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := m.WaitForContext(ctx, "never", 10*time.Millisecond)
	if err == nil {
		t.Fatal("cancelled WaitForContext succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("WaitForContext took %v to notice cancellation", elapsed)
	}
}

func TestWaitForBrokenMountFailsFast(t *testing.T) {
	_, m := startShare(t)
	m.Close()
	start := time.Now()
	if _, _, err := m.WaitFor("x", 10*time.Millisecond, 10*time.Second); err == nil {
		t.Fatal("WaitFor on closed mount succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("WaitFor on dead mount ran out the clock instead of failing fast")
	}
}

func TestMountChecksum(t *testing.T) {
	dir, m := startShare(t)
	content := []byte("EC-Lab ASCII FILE (ICE simulated)\ndata rows here\n")
	os.WriteFile(filepath.Join(dir, "cv.mpt"), content, 0o644)
	sum, size, err := m.Checksum("cv.mpt")
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(content)
	if sum != hex.EncodeToString(want[:]) {
		t.Errorf("Checksum sum = %s", sum)
	}
	if size != int64(len(content)) {
		t.Errorf("Checksum size = %d, want %d", size, len(content))
	}
	if _, _, err := m.Checksum("missing"); err == nil {
		t.Error("Checksum of missing file succeeded")
	}
	if _, _, err := m.Checksum("../escape"); err == nil {
		t.Error("Checksum path escape accepted")
	}
}

func TestMountReadAllVerified(t *testing.T) {
	dir, m := startShare(t)
	content := make([]byte, 700_000) // spans multiple chunks
	for i := range content {
		content[i] = byte(i * 7)
	}
	os.WriteFile(filepath.Join(dir, "big.bin"), content, 0o644)
	data, err := m.ReadAllVerified("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(content) {
		t.Errorf("ReadAllVerified = %d bytes, want %d", len(data), len(content))
	}
	if _, err := m.ReadAllVerified("missing"); err == nil {
		t.Error("ReadAllVerified of missing file succeeded")
	}
}
