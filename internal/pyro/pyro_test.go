package pyro

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// calc is a test server object.
type calc struct {
	mu    sync.Mutex
	calls int
}

func (c *calc) Add(a, b int) int { c.bump(); return a + b }
func (c *calc) Div(a, b float64) (float64, error) {
	c.bump()
	if b == 0 {
		return 0, errors.New("division by zero")
	}
	return a / b, nil
}
func (c *calc) Ping()                { c.bump() }
func (c *calc) Fail() error          { c.bump(); return errors.New("always fails") }
func (c *calc) Echo(s string) string { c.bump(); return s }
func (c *calc) Sum(xs []float64) float64 {
	c.bump()
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
func (c *calc) Boom() { panic("kaboom") }
func (c *calc) bump() {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
}
func (c *calc) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// point exercises struct arguments and results.
type point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type geom struct{}

func (geom) Mid(a, b point) point { return point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2} }

// startDaemon returns a live daemon on a loopback listener plus a
// cleanup func.
func startDaemon(t *testing.T) (*Daemon, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(l)
	done := make(chan struct{})
	go func() { d.RequestLoop(); close(done) }()
	return d, func() {
		d.Close()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Error("RequestLoop did not exit")
		}
	}
}

func TestParseURI(t *testing.T) {
	u, err := ParseURI("PYRO:ACL_Server@10.2.11.161:9690")
	if err != nil {
		t.Fatal(err)
	}
	if u.Object != "ACL_Server" || u.Host != "10.2.11.161" || u.Port != 9690 {
		t.Errorf("parsed = %+v", u)
	}
	if u.String() != "PYRO:ACL_Server@10.2.11.161:9690" {
		t.Errorf("String = %q", u.String())
	}
	if u.WithObject("Other").Object != "Other" {
		t.Error("WithObject failed")
	}
}

func TestParseURIErrors(t *testing.T) {
	for _, bad := range []string{
		"", "ACL@h:1", "PYRO:@h:1", "PYRO:Obj", "PYRO:Obj@host",
		"PYRO:Obj@host:0", "PYRO:Obj@host:99999", "PYRO:Obj@host:abc",
	} {
		if _, err := ParseURI(bad); err == nil {
			t.Errorf("ParseURI(%q) accepted", bad)
		}
	}
}

func TestBasicRemoteCalls(t *testing.T) {
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

	var sum int
	if err := p.CallInto(&sum, "Add", 2, 40); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Errorf("Add = %d", sum)
	}

	var q float64
	if err := p.CallInto(&q, "Div", 10.0, 4.0); err != nil {
		t.Fatal(err)
	}
	if q != 2.5 {
		t.Errorf("Div = %v", q)
	}

	var echoed string
	if err := p.CallInto(&echoed, "Echo", "hello ICE"); err != nil {
		t.Fatal(err)
	}
	if echoed != "hello ICE" {
		t.Errorf("Echo = %q", echoed)
	}

	var total float64
	if err := p.CallInto(&total, "Sum", []float64{1, 2, 3.5}); err != nil {
		t.Fatal(err)
	}
	if total != 6.5 {
		t.Errorf("Sum = %v", total)
	}

	// Void method.
	if err := p.CallInto(nil, "Ping"); err != nil {
		t.Fatal(err)
	}
	if c.Calls() != 5 {
		t.Errorf("server saw %d calls, want 5", c.Calls())
	}
}

func TestRemoteErrorsSurface(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Calc", &calc{})
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	_, err = p.Call("Div", 1.0, 0.0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error type = %T (%v), want RemoteError", err, err)
	}
	if !strings.Contains(re.Msg, "division by zero") {
		t.Errorf("remote msg = %q", re.Msg)
	}
	if _, err := p.Call("Fail"); err == nil {
		t.Error("Fail returned nil error")
	}
	// Connection still usable after remote errors.
	var sum int
	if err := p.CallInto(&sum, "Add", 1, 1); err != nil || sum != 2 {
		t.Errorf("post-error call = %v, %v", sum, err)
	}
}

func TestPanicInMethodBecomesError(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Calc", &calc{})
	p, _ := Dial(uri, nil, DialConfig{})
	defer p.Close()
	_, err := p.Call("Boom")
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("Boom error = %v, want panic surfaced", err)
	}
	// Daemon survives.
	var sum int
	if err := p.CallInto(&sum, "Add", 1, 2); err != nil || sum != 3 {
		t.Errorf("post-panic call = %v, %v", sum, err)
	}
}

func TestDispatchErrors(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Calc", &calc{})
	p, _ := Dial(uri, nil, DialConfig{})
	defer p.Close()

	if _, err := p.Call("NoSuchMethod"); err == nil || !strings.Contains(err.Error(), "no method") {
		t.Errorf("unknown method error = %v", err)
	}
	if _, err := p.Call("Add", 1); err == nil || !strings.Contains(err.Error(), "argument") {
		t.Errorf("arity error = %v", err)
	}
	if _, err := p.Call("Add", "one", "two"); err == nil {
		t.Error("type mismatch accepted")
	}
	// Unknown object via a proxy pointed elsewhere on the same daemon.
	p2, err := Dial(uri.WithObject("Ghost"), nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, err := p2.Call("Add", 1, 2); err == nil || !strings.Contains(err.Error(), "unknown object") {
		t.Errorf("unknown object error = %v", err)
	}
}

func TestStructArguments(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Geom", geom{})
	p, _ := Dial(uri, nil, DialConfig{})
	defer p.Close()
	var mid point
	if err := p.CallInto(&mid, "Mid", point{X: 0, Y: 0}, point{X: 4, Y: 6}); err != nil {
		t.Fatal(err)
	}
	if mid.X != 2 || mid.Y != 3 {
		t.Errorf("Mid = %+v", mid)
	}
}

// nested exercises deeply structured arguments and results.
type nested struct {
	Rows []point            `json:"rows"`
	Tags map[string]float64 `json:"tags"`
	Next *nested            `json:"next,omitempty"`
}

type nestedServer struct{}

func (nestedServer) Sum(n nested) float64 {
	total := 0.0
	for _, p := range n.Rows {
		total += p.X + p.Y
	}
	for _, v := range n.Tags {
		total += v
	}
	if n.Next != nil {
		total += nestedServer{}.Sum(*n.Next)
	}
	return total
}

func TestDeeplyNestedArguments(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("N", nestedServer{})
	p, err := Dial(uri, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	arg := nested{
		Rows: []point{{X: 1, Y: 2}, {X: 3, Y: 4}},
		Tags: map[string]float64{"a": 10, "b": 20},
		Next: &nested{Rows: []point{{X: 100, Y: 200}}},
	}
	var total float64
	if err := p.CallInto(&total, "Sum", arg); err != nil {
		t.Fatal(err)
	}
	if total != 340 {
		t.Errorf("Sum = %v, want 340", total)
	}
}

func TestRegisterValidation(t *testing.T) {
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	d := NewDaemon(l)
	defer d.Close()
	if _, err := d.Register("", &calc{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := d.Register("X", nil); err == nil {
		t.Error("nil object accepted")
	}
	if _, err := d.Register("NoMethods", struct{}{}); err == nil {
		t.Error("method-less object accepted")
	}
	if _, err := d.Register("Calc", &calc{}); err != nil {
		t.Errorf("valid registration failed: %v", err)
	}
	if _, err := d.Register("Calc", &calc{}); err == nil {
		t.Error("duplicate name accepted")
	}
	// Bad signature: two non-error results.
	if _, err := d.Register("Bad", badSig{}); err == nil {
		t.Error("two-result method accepted")
	}
	if got := d.Objects(); len(got) != 1 || got[0] != "Calc" {
		t.Errorf("Objects = %v", got)
	}
}

type badSig struct{}

func (badSig) Two() (int, string) { return 0, "" }

func TestConcurrentProxies(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	c := &calc{}
	uri, _ := d.Register("Calc", c)

	const clients, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			p, err := Dial(uri, nil, DialConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			for j := 0; j < per; j++ {
				var sum int
				if err := p.CallInto(&sum, "Add", base, j); err != nil {
					errs <- err
					return
				}
				if sum != base+j {
					errs <- fmt.Errorf("Add(%d,%d) = %d", base, j, sum)
					return
				}
			}
		}(i * 1000)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Calls() != clients*per {
		t.Errorf("server saw %d calls, want %d", c.Calls(), clients*per)
	}
}

func TestSharedProxyIsGoroutineSafe(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Calc", &calc{})
	p, _ := Dial(uri, nil, DialConfig{})
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				var sum int
				if err := p.CallInto(&sum, "Add", n, j); err != nil || sum != n+j {
					t.Errorf("Add(%d,%d) = %d, %v", n, j, sum, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestProxyClosedErrors(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Calc", &calc{})
	p, _ := Dial(uri, nil, DialConfig{})
	p.Close()
	if _, err := p.Call("Ping"); !errors.Is(err, ErrProxyClosed) {
		t.Errorf("call on closed proxy = %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	// Port 1 on loopback is almost certainly closed.
	_, err := Dial(URI{Object: "X", Host: "127.0.0.1", Port: 1}, nil, DialConfig{})
	if err == nil {
		t.Skip("something is listening on port 1")
	}
}

func TestDaemonTrace(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	var mu sync.Mutex
	var lines []string
	d.Trace = func(s string) {
		mu.Lock()
		lines = append(lines, s)
		mu.Unlock()
	}
	uri, _ := d.Register("Calc", &calc{})
	p, _ := Dial(uri, nil, DialConfig{})
	defer p.Close()
	p.Call("Ping")
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "Calc.Ping") {
		t.Errorf("trace = %v", lines)
	}
}

func TestNameServer(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	ns := NewNameServer()
	nsURI, err := d.Register(NSObjectName, ns)
	if err != nil {
		t.Fatal(err)
	}
	calcURI, _ := d.Register("Calc", &calc{})

	nsProxy, err := Dial(nsURI, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer nsProxy.Close()

	if err := nsProxy.CallInto(nil, "RegisterName", "acl.calc", calcURI.String()); err != nil {
		t.Fatal(err)
	}
	resolved, err := LookupVia(nsProxy, "acl.calc")
	if err != nil {
		t.Fatal(err)
	}
	if resolved != calcURI {
		t.Errorf("resolved = %v, want %v", resolved, calcURI)
	}

	// Use the resolved URI.
	p, err := Dial(resolved, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sum int
	if err := p.CallInto(&sum, "Add", 20, 22); err != nil || sum != 42 {
		t.Errorf("resolved call = %d, %v", sum, err)
	}

	// Listing, removal, errors.
	var listing []string
	if err := nsProxy.CallInto(&listing, "List"); err != nil || len(listing) != 1 {
		t.Errorf("List = %v, %v", listing, err)
	}
	if err := nsProxy.CallInto(nil, "Remove", "acl.calc"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupVia(nsProxy, "acl.calc"); err == nil {
		t.Error("lookup after remove succeeded")
	}
	if err := ns.RegisterName("bad", "not-a-uri"); err == nil {
		t.Error("invalid URI registration accepted")
	}
	if err := ns.RegisterName("", "PYRO:X@h:1"); err == nil {
		t.Error("empty name accepted")
	}
}

func TestHandshakeRejectsNonPyroClient(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Calc", &calc{})
	conn, err := net.Dial("tcp", uri.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage instead of the hello: daemon must drop the connection.
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	n, _ := conn.Read(buf)
	if n > 0 && strings.Contains(string(buf[:n]), "result") {
		t.Error("daemon answered a non-handshake client")
	}
}

func TestProxyTimeout(t *testing.T) {
	// A listener that accepts the handshake then goes silent.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		expectHello(conn, "")
		sendHello(conn, "")
		// Read the request but never answer.
		readFrame(conn, nil)
		select {}
	}()
	host, portStr, _ := net.SplitHostPort(l.Addr().String())
	var port int
	fmt.Sscan(portStr, &port)
	p, err := Dial(URI{Object: "X", Host: host, Port: port}, nil, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err = p.Call("Anything")
	if err == nil {
		t.Fatal("silent server call returned nil error")
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("timeout took %v", time.Since(start))
	}
}

// Property: Add is faithful over the wire for arbitrary ints.
func TestRemoteAddProperty(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Calc", &calc{})
	p, _ := Dial(uri, nil, DialConfig{})
	defer p.Close()
	f := func(a, b int32) bool {
		var sum int
		if err := p.CallInto(&sum, "Add", int(a), int(b)); err != nil {
			return false
		}
		return sum == int(a)+int(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Echo round-trips arbitrary strings (JSON escaping etc.).
func TestRemoteEchoProperty(t *testing.T) {
	d, stop := startDaemon(t)
	defer stop()
	uri, _ := d.Register("Calc", &calc{})
	p, _ := Dial(uri, nil, DialConfig{})
	defer p.Close()
	f := func(s string) bool {
		var got string
		if err := p.CallInto(&got, "Echo", s); err != nil {
			return false
		}
		return got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
