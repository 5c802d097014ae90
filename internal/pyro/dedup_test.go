package pyro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ice/internal/telemetry"
)

func TestCallIDDedupExecutesOnce(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	c := &calc{}
	uri, err := d.Register("Calc", c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Same CallID three times: one execution, identical results.
	for i := 0; i < 3; i++ {
		var sum int
		raw, err := p.CallWithID("dup-1", "Add", 2, 3)
		if err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
		if err := decode(raw, &sum); err != nil || sum != 5 {
			t.Fatalf("attempt %d: sum = %d, %v", i, sum, err)
		}
	}
	if got := c.Calls(); got != 1 {
		t.Errorf("method executed %d times, want 1", got)
	}
	if hits := d.DedupHits(); hits != 2 {
		t.Errorf("dedup hits = %d, want 2", hits)
	}

	// A different CallID executes again.
	if _, err := p.CallWithID("dup-2", "Add", 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.Calls(); got != 2 {
		t.Errorf("method executed %d times after new id, want 2", got)
	}

	// Empty CallID dispatches unconditionally.
	if _, err := p.Call("Add", 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call("Add", 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := c.Calls(); got != 4 {
		t.Errorf("unmarked calls deduplicated: %d executions, want 4", got)
	}
}

func decode(raw []byte, out any) error {
	if raw == nil {
		return errors.New("no result")
	}
	return json.Unmarshal(raw, out)
}

func TestCallIDDedupReplaysErrors(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	c := &calc{}
	uri, err := d.Register("Calc", c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 2; i++ {
		_, err := p.CallWithID("fail-1", "Fail")
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("attempt %d: error = %v, want RemoteError", i, err)
		}
	}
	if got := c.Calls(); got != 1 {
		t.Errorf("failing method executed %d times, want 1", got)
	}
}

func TestConcurrentDuplicatesExecuteOnce(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	s := &slowObj{block: make(chan struct{})}
	uri, err := d.Register("Slow", s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const dups = 8
	var wg sync.WaitGroup
	results := make([]int, dups)
	errs := make([]error, dups)
	for i := 0; i < dups; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := p.CallWithID("race-1", "Next")
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = decode(raw, &results[i])
		}()
	}
	// Let duplicates pile up on the in-flight entry, then release.
	time.Sleep(50 * time.Millisecond)
	close(s.block)
	wg.Wait()
	for i := 0; i < dups; i++ {
		if errs[i] != nil {
			t.Fatalf("dup %d: %v", i, errs[i])
		}
		if results[i] != 1 {
			t.Errorf("dup %d saw result %d, want 1 (single execution)", i, results[i])
		}
	}
	if n := s.Count(); n != 1 {
		t.Errorf("method executed %d times, want 1", n)
	}
}

// slowObj blocks its Next method until released, returning a
// monotonically increasing counter so re-executions are visible.
type slowObj struct {
	block chan struct{}
	mu    sync.Mutex
	n     int
}

func (s *slowObj) Next() int {
	<-s.block
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

func (s *slowObj) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func TestReplyCacheEvictionBound(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	d.SetReplyCacheCapacity(4)
	c := &calc{}
	uri, err := d.Register("Calc", c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 20; i++ {
		if _, err := p.CallWithID(fmt.Sprintf("id-%d", i), "Ping"); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.dedupCacheLen(); n > 4 {
		t.Errorf("reply cache holds %d outcomes, capacity 4", n)
	}
	// An evicted CallID re-executes (at-most-once within the window).
	if _, err := p.CallWithID("id-0", "Ping"); err != nil {
		t.Fatal(err)
	}
	if got := c.Calls(); got != 21 {
		t.Errorf("executions = %d, want 21 (evicted id re-ran)", got)
	}
}

func TestReplyCacheEvictionSkipsInFlight(t *testing.T) {
	rc := newReplyCache(2)
	a, first := rc.begin("a")
	if !first {
		t.Fatal("a not first")
	}
	b, _ := rc.begin("b")
	// Both in flight; beginning a third may overshoot but must not
	// evict an incomplete entry.
	rc.begin("c")
	if _, firstAgain := rc.begin("a"); firstAgain {
		t.Error("in-flight entry a was evicted")
	}
	a.complete(nil, "")
	b.complete(nil, "")
}

func TestDedupHitCounter(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	metrics := telemetry.NewCollector()
	d.SetMetrics(metrics)
	uri, err := d.Register("Calc", &calc{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.CallWithID("ctr-1", "Ping"); err != nil {
			t.Fatal(err)
		}
	}
	if v := metrics.CounterValue("pyro.dedup_hits"); v != 2 {
		t.Errorf("pyro.dedup_hits = %d, want 2", v)
	}
}

func TestReconnectingProxyExactlyOnceAcrossRetries(t *testing.T) {
	rd := newRestartable(t)
	defer rd.stop()
	p := NewReconnectingProxy(rd.uri(), nil, "")
	p.Backoff = 10 * time.Millisecond
	p.MaxRetries = 5
	p.MarkExactlyOnce("Add")
	defer p.Close()
	// Two calls to the same marked method must get distinct CallIDs —
	// they are different logical commands.
	var a, b int
	if err := p.CallInto(&a, "Add", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.CallInto(&b, "Add", 2, 2); err != nil {
		t.Fatal(err)
	}
	if a != 2 || b != 4 {
		t.Errorf("results = %d, %d", a, b)
	}
}

func TestCloseCancelsBackoff(t *testing.T) {
	// Nothing listening: every attempt fails and backs off.
	p := NewReconnectingProxy(URI{Object: "X", Host: "127.0.0.1", Port: 1}, nil, "")
	p.MaxRetries = 100
	p.Backoff = time.Hour // without cancellation this would hang
	errCh := make(chan error, 1)
	go func() {
		_, err := p.Call("Anything")
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	p.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrProxyClosed) {
			t.Errorf("err = %v, want ErrProxyClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not interrupt backoff sleep")
	}
}

func TestContextCancelsBackoff(t *testing.T) {
	p := NewReconnectingProxy(URI{Object: "X", Host: "127.0.0.1", Port: 1}, nil, "")
	p.MaxRetries = 100
	p.Backoff = time.Hour
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := p.CallCtx(ctx, "Anything")
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ctx cancel did not interrupt backoff sleep")
	}
}

func TestRetryCounters(t *testing.T) {
	rd := newRestartable(t)
	defer rd.stop()
	metrics := telemetry.NewCollector()
	p := NewReconnectingProxy(rd.uri(), nil, "")
	p.Backoff = 10 * time.Millisecond
	p.MaxRetries = 20
	p.SetMetrics(metrics)
	defer p.Close()

	if _, err := p.Call("Ping"); err != nil {
		t.Fatal(err)
	}
	if v := metrics.CounterValue("pyro.retries"); v != 0 {
		t.Errorf("fault-free retries = %d, want 0", v)
	}

	rd.stop()
	go func() {
		time.Sleep(40 * time.Millisecond)
		rd.restart()
	}()
	if _, err := p.Call("Ping"); err != nil {
		t.Fatal(err)
	}
	if v := metrics.CounterValue("pyro.retries"); v == 0 {
		t.Error("retries counter still 0 after daemon restart")
	}
	if v := metrics.CounterValue("pyro.redials"); v == 0 {
		t.Error("redials counter still 0 after daemon restart")
	}
}
