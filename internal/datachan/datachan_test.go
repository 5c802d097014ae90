package datachan

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ice/internal/testutil"
)

// startShare exports a temp directory over loopback TCP and returns
// the directory, a connected mount and a cleanup func.
func startShare(t *testing.T) (string, *Mount) {
	t.Helper()
	dir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExport(dir, l)
	go exp.Serve()
	t.Cleanup(func() { exp.Close() })

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMount(conn)
	t.Cleanup(func() { m.Close() })
	return dir, m
}

func TestListStatRead(t *testing.T) {
	dir, m := startShare(t)
	content := []byte("EC-Lab ASCII FILE (ICE simulated)\ndata...\n")
	if err := os.WriteFile(filepath.Join(dir, "CV_ch1_run001.mpt"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "a.txt"), []byte("x"), 0o644)
	os.Mkdir(filepath.Join(dir, "subdir"), 0o755) // directories are skipped

	files, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("List = %v, want 2 files", files)
	}
	if files[0].Name != "CV_ch1_run001.mpt" || files[1].Name != "a.txt" {
		t.Errorf("sorted names = %v, %v", files[0].Name, files[1].Name)
	}

	fi, err := m.Stat("CV_ch1_run001.mpt")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != int64(len(content)) {
		t.Errorf("Stat size = %d, want %d", fi.Size, len(content))
	}

	data, err := m.ReadAll("CV_ch1_run001.mpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, content) {
		t.Errorf("ReadAll = %q", data)
	}
}

func TestReadAtPartial(t *testing.T) {
	dir, m := startShare(t)
	os.WriteFile(filepath.Join(dir, "f.bin"), []byte("0123456789"), 0o644)
	chunk, eof, err := m.ReadAt("f.bin", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(chunk) != "3456" || eof {
		t.Errorf("ReadAt = %q eof=%v", chunk, eof)
	}
	chunk, eof, err = m.ReadAt("f.bin", 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(chunk) != "89" || !eof {
		t.Errorf("tail ReadAt = %q eof=%v", chunk, eof)
	}
}

func TestErrorsSurface(t *testing.T) {
	_, m := startShare(t)
	if _, err := m.Stat("missing.mpt"); err == nil {
		t.Error("Stat of missing file succeeded")
	}
	if _, err := m.ReadAll("missing.mpt"); err == nil {
		t.Error("ReadAll of missing file succeeded")
	}
	// Path escapes rejected.
	for _, bad := range []string{"../etc/passwd", "a/b", `a\b`, "..", "."} {
		if _, err := m.Stat(bad); err == nil {
			t.Errorf("Stat(%q) accepted", bad)
		}
	}
	// Bad read length.
	if _, _, err := m.ReadAt("x", 0, 0); err == nil {
		t.Error("zero-length read accepted")
	}
	// Connection still alive after errors.
	if _, err := m.List(); err != nil {
		t.Errorf("List after errors: %v", err)
	}
}

func TestLargeFileRoundTrip(t *testing.T) {
	dir, m := startShare(t)
	big := make([]byte, 1_500_000) // spans several read chunks
	for i := range big {
		big[i] = byte(i * 31)
	}
	os.WriteFile(filepath.Join(dir, "big.bin"), big, 0o644)
	got, err := m.ReadAll("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("large file corrupted in transfer")
	}
}

func TestGrowingFileVisibleAcrossReads(t *testing.T) {
	// The data channel must expose a file that is still being written,
	// as during acquisition streaming.
	dir, m := startShare(t)
	path := filepath.Join(dir, "grow.mpt")
	os.WriteFile(path, []byte("part1\n"), 0o644)
	d1, err := m.ReadAll("grow.mpt")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString("part2\n")
	f.Close()
	d2, err := m.ReadAll("grow.mpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(d2) <= len(d1) {
		t.Errorf("second read %d bytes, first %d; growth invisible", len(d2), len(d1))
	}
}

func TestWatcherSeesCreateAndModify(t *testing.T) {
	dir, m := startShare(t)
	w := m.Watch(10 * time.Millisecond)
	defer w.Stop()

	time.Sleep(30 * time.Millisecond) // let the watcher prime
	path := filepath.Join(dir, "run.mpt")
	os.WriteFile(path, []byte("header\n"), 0o644)

	ev := waitEvent(t, w)
	if ev.Type != Created || ev.File.Name != "run.mpt" {
		t.Fatalf("first event = %v %q", ev.Type, ev.File.Name)
	}

	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString("more data\n")
	f.Close()
	ev = waitEvent(t, w)
	if ev.Type != Modified || ev.File.Name != "run.mpt" {
		t.Fatalf("second event = %v %q", ev.Type, ev.File.Name)
	}
}

func waitEvent(t *testing.T, w *Watcher) Event {
	t.Helper()
	select {
	case ev, ok := <-w.Events():
		if !ok {
			t.Fatalf("watcher stopped: %v", w.Err())
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no watch event within 5s")
	}
	return Event{}
}

func TestWatcherStop(t *testing.T) {
	_, m := startShare(t)
	w := m.Watch(5 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent
	select {
	case _, ok := <-w.Events():
		if ok {
			t.Error("event after Stop")
		}
	case <-time.After(2 * time.Second):
		t.Error("Events not closed after Stop")
	}
}

func TestWaitForStableFile(t *testing.T) {
	dir, m := startShare(t)
	// Simulate streaming: grow the file in the background, then stop.
	go func() {
		path := filepath.Join(dir, "CV_ch1_run001.mpt")
		testutil.WriteAtomic(path, []byte("chunk0\n"))
		for i := 1; i <= 3; i++ {
			time.Sleep(10 * time.Millisecond)
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			f.WriteString("chunkN\n")
			f.Close()
		}
	}()
	data, name, err := m.WaitFor("CV_ch1", 25*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if name != "CV_ch1_run001.mpt" {
		t.Errorf("name = %q", name)
	}
	if len(data) != len("chunk0\n")+3*len("chunkN\n") {
		t.Errorf("WaitFor returned %d bytes before file settled", len(data))
	}
}

func TestWaitForTimeout(t *testing.T) {
	_, m := startShare(t)
	if _, _, err := m.WaitFor("never", 5*time.Millisecond, 50*time.Millisecond); err == nil {
		t.Error("WaitFor for absent file succeeded")
	}
}

func TestBytesServedAccounting(t *testing.T) {
	dir := t.TempDir()
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	exp := NewExport(dir, l)
	go exp.Serve()
	defer exp.Close()
	conn, _ := net.Dial("tcp", l.Addr().String())
	m := NewMount(conn)
	defer m.Close()

	payload := make([]byte, 10_000)
	os.WriteFile(filepath.Join(dir, "f"), payload, 0o644)
	m.ReadAll("f")
	if got := exp.BytesServed(); got != 10_000 {
		t.Errorf("BytesServed = %d, want 10000", got)
	}
}

func TestConcurrentMountUse(t *testing.T) {
	dir, m := startShare(t)
	os.WriteFile(filepath.Join(dir, "f"), bytes.Repeat([]byte("z"), 4096), 0o644)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := m.ReadAll("f"); err != nil {
					t.Errorf("ReadAll: %v", err)
					return
				}
				if _, err := m.List(); err != nil {
					t.Errorf("List: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMountClosed(t *testing.T) {
	_, m := startShare(t)
	m.Close()
	if _, err := m.List(); err == nil {
		t.Error("List on closed mount succeeded")
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestMultipleMounts(t *testing.T) {
	dir := t.TempDir()
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	exp := NewExport(dir, l)
	go exp.Serve()
	defer exp.Close()
	os.WriteFile(filepath.Join(dir, "f"), []byte("shared"), 0o644)

	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		m := NewMount(conn)
		data, err := m.ReadAll("f")
		if err != nil || string(data) != "shared" {
			t.Errorf("mount %d: %q, %v", i, data, err)
		}
		m.Close()
	}
}

func TestEventTypeString(t *testing.T) {
	if Created.String() != "created" || Modified.String() != "modified" {
		t.Error("event type names wrong")
	}
	if EventType(9).String() != "event(9)" {
		t.Errorf("unknown event = %q", EventType(9).String())
	}
}

// Property: arbitrary binary content survives the share round trip.
func TestShareRoundTripProperty(t *testing.T) {
	dir, m := startShare(t)
	i := 0
	f := func(data []byte) bool {
		i++
		name := filepath.Join(dir, "prop.bin")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return false
		}
		got, err := m.ReadAll("prop.bin")
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExportOverNetPipeTransport(t *testing.T) {
	// The mount works over any net.Conn — here a raw in-memory pipe,
	// standing in for the netsim fabric.
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "f"), []byte("via pipe"), 0o644)
	client, server := net.Pipe()
	exp := NewExport(dir, nil) // Serve not used; handle one conn directly
	go exp.serveConn(server)
	m := NewMount(client)
	defer m.Close()
	data, err := m.ReadAll("f")
	if err != nil || string(data) != "via pipe" {
		t.Errorf("pipe transport = %q, %v", data, err)
	}
}

func TestWatcherReportsErrorWhenExportDies(t *testing.T) {
	dir := t.TempDir()
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	exp := NewExport(dir, l)
	go exp.Serve()
	conn, _ := net.Dial("tcp", l.Addr().String())
	m := NewMount(conn)
	defer m.Close()

	w := m.Watch(10 * time.Millisecond)
	defer w.Stop()
	exp.Close()
	select {
	case _, ok := <-w.Events():
		if ok {
			// Drain until close.
			for range w.Events() {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not notice dead export")
	}
	if w.Err() == nil {
		t.Error("watcher terminated without recording an error")
	}
	if !strings.Contains(w.Err().Error(), "datachan") {
		t.Errorf("err = %v", w.Err())
	}
}
