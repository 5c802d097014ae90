package pyro

import (
	"net"
	"sync"
	"testing"
	"time"
)

// slowServer has one slow method and one fast one.
type slowServer struct{}

func (slowServer) Slow() string {
	time.Sleep(300 * time.Millisecond)
	return "slow done"
}
func (slowServer) Fast() string { return "fast done" }

// TestPipelinedCallsDoNotSerialise verifies that a fast call issued on
// a shared proxy while a slow call is in flight completes without
// waiting for the slow one — the property the control channel relies
// on when status polls run next to a long acquisition wait.
func TestPipelinedCallsDoNotSerialise(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(l)
	uri, err := d.Register("S", slowServer{})
	if err != nil {
		t.Fatal(err)
	}
	go d.RequestLoop()
	defer d.Close()

	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	slowDone := make(chan struct{})
	go func() {
		var out string
		if err := p.CallInto(&out, "Slow"); err != nil {
			t.Errorf("Slow: %v", err)
		}
		close(slowDone)
	}()
	time.Sleep(30 * time.Millisecond) // let Slow get in flight

	start := time.Now()
	var out string
	if err := p.CallInto(&out, "Fast"); err != nil {
		t.Fatal(err)
	}
	fastLatency := time.Since(start)
	if out != "fast done" {
		t.Errorf("Fast = %q", out)
	}
	if fastLatency > 150*time.Millisecond {
		t.Errorf("Fast took %v behind a 300ms Slow call: pipelining broken", fastLatency)
	}
	select {
	case <-slowDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Slow never completed")
	}
}

// TestManyConcurrentPipelinedCalls hammers one proxy from many
// goroutines and checks every response routes to its caller.
func TestManyConcurrentPipelinedCalls(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(l)
	uri, _ := d.Register("Calc", &calc{})
	go d.RequestLoop()
	defer d.Close()

	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				var sum int
				if err := p.CallInto(&sum, "Add", base, j); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				if sum != base+j {
					t.Errorf("Add(%d,%d) = %d: response misrouted", base, j, sum)
					return
				}
			}
		}(g * 1000)
	}
	wg.Wait()
}

// TestCloseFailsInFlightCalls ensures pending callers wake with an
// error when the proxy closes underneath them.
func TestCloseFailsInFlightCalls(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(l)
	uri, _ := d.Register("S", slowServer{})
	go d.RequestLoop()
	defer d.Close()

	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := p.Call("Slow")
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	p.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("in-flight call survived Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after Close")
	}
}

// TestDaemonDeathFailsInFlightCalls ensures callers wake when the
// server goes away mid-call.
func TestDaemonDeathFailsInFlightCalls(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(l)
	uri, _ := d.Register("S", slowServer{})
	go d.RequestLoop()

	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := p.Call("Slow")
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	d.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("in-flight call survived daemon death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after daemon death")
	}
	// Subsequent calls fail fast with the recorded error.
	if _, err := p.Call("Fast"); err == nil {
		t.Error("call after connection failure succeeded")
	}
}
