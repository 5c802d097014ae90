package pyro

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"sync"

	"ice/internal/telemetry"
	"ice/internal/trace"
)

// exposed is one registered object with its callable method set.
type exposed struct {
	value   reflect.Value
	methods map[string]reflect.Method
}

// Daemon publishes objects over a listener, the server half of Fig. 3:
// it wraps Go objects, registers them under names, and serves method
// invocations from remote proxies.
type Daemon struct {
	listener net.Listener
	host     string
	port     int

	mu      sync.Mutex
	objects map[string]*exposed
	conns   map[net.Conn]struct{}
	closed  bool

	// Trace, when set, receives one line per dispatched call — the
	// server-side console transcript of the paper's Fig. 6b.
	Trace func(line string)

	// AuthToken, when non-empty, requires clients to present the same
	// shared secret in their handshake; mismatches are dropped before
	// any dispatch. Set it before RequestLoop.
	AuthToken string

	// Audit, when set, receives every successfully resolved call with
	// its raw arguments — the hook provenance journals hang off.
	// It runs on the dispatch goroutine; keep it fast.
	Audit func(object, method string, args []json.RawMessage)

	// replies dedups requests carrying a CallID so a retried
	// non-idempotent command is executed exactly once.
	replies *replyCache

	// metrics optionally counts dedup hits ("pyro.dedup_hits").
	metrics *telemetry.Collector

	// tracer, when set, opens a server-side span for every request
	// carrying a traceparent, parented under the remote client span.
	tracer *trace.Tracer
}

// NewDaemon wraps a listener. The advertised host/port for URIs are
// taken from the listener address; override them with SetAdvertised
// when the listener's literal address is not routable (e.g. inside the
// network simulator).
func NewDaemon(l net.Listener) *Daemon {
	d := &Daemon{
		listener: l,
		objects:  make(map[string]*exposed),
		conns:    make(map[net.Conn]struct{}),
		replies:  newReplyCache(0),
	}
	if host, portStr, err := net.SplitHostPort(l.Addr().String()); err == nil {
		d.host = host
		d.port, _ = strconv.Atoi(portStr)
	}
	return d
}

// SetAdvertised overrides the host and port placed into registered
// object URIs.
func (d *Daemon) SetAdvertised(host string, port int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.host, d.port = host, port
}

// SetReplyCacheCapacity bounds the exactly-once reply cache (default
// 1024 outcomes). Call before RequestLoop; cached outcomes are
// discarded.
func (d *Daemon) SetReplyCacheCapacity(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.replies = newReplyCache(n)
}

// SetMetrics attaches a telemetry collector; the daemon counts
// exactly-once replays on its "pyro.dedup_hits" counter.
func (d *Daemon) SetMetrics(c *telemetry.Collector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.metrics = c
}

// SetTracer attaches a tracer; requests whose envelope carries a
// traceparent then get daemon-side spans in the same trace as the
// caller — the server half of the cross-facility trace.
func (d *Daemon) SetTracer(tr *trace.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracer = tr
}

// DedupHits reports how many duplicate requests were answered from the
// reply cache instead of re-executing.
func (d *Daemon) DedupHits() int64 {
	d.mu.Lock()
	rc := d.replies
	d.mu.Unlock()
	return rc.Hits()
}

// dedupCacheLen reports the number of cached outcomes, for tests.
func (d *Daemon) dedupCacheLen() int {
	d.mu.Lock()
	rc := d.replies
	d.mu.Unlock()
	return rc.Len()
}

// errType is the reflected error interface type.
var errType = reflect.TypeOf((*error)(nil)).Elem()

// Register exposes obj under name and returns its URI. Every exported
// method becomes remotely callable; method signatures may take any
// JSON-decodable parameters and must return at most one value plus an
// optional trailing error.
func (d *Daemon) Register(name string, obj any) (URI, error) {
	if name == "" {
		return URI{}, errors.New("pyro: object name must not be empty")
	}
	v := reflect.ValueOf(obj)
	if !v.IsValid() {
		return URI{}, errors.New("pyro: cannot register nil object")
	}
	t := v.Type()
	methods := make(map[string]reflect.Method)
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !m.IsExported() {
			continue
		}
		if err := checkMethodSignature(m); err != nil {
			return URI{}, fmt.Errorf("pyro: object %q: %w", name, err)
		}
		methods[m.Name] = m
	}
	if len(methods) == 0 {
		return URI{}, fmt.Errorf("pyro: object %q exposes no exported methods", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.objects[name]; dup {
		return URI{}, fmt.Errorf("pyro: object %q already registered", name)
	}
	d.objects[name] = &exposed{value: v, methods: methods}
	return URI{Object: name, Host: d.host, Port: d.port}, nil
}

// checkMethodSignature enforces "results: at most one value plus an
// optional trailing error".
func checkMethodSignature(m reflect.Method) error {
	mt := m.Type
	nonErr := 0
	for i := 0; i < mt.NumOut(); i++ {
		if mt.Out(i) == errType {
			if i != mt.NumOut()-1 {
				return fmt.Errorf("method %s: error must be the last return value", m.Name)
			}
			continue
		}
		nonErr++
	}
	if nonErr > 1 {
		return fmt.Errorf("method %s: at most one non-error return value is supported", m.Name)
	}
	return nil
}

// Objects returns the registered object names.
func (d *Daemon) Objects() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.objects))
	for k := range d.objects {
		out = append(out, k)
	}
	return out
}

// RequestLoop accepts and serves connections until Close. It returns
// nil after a clean Close.
func (d *Daemon) RequestLoop() error {
	for {
		conn, err := d.listener.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return nil
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		go d.serveConn(conn)
	}
}

// Close stops the request loop and closes every live connection.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	err := d.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (d *Daemon) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	d.mu.Lock()
	token := d.AuthToken
	metrics := d.metrics
	d.mu.Unlock()
	if err := expectHello(conn, token); err != nil {
		return
	}
	if err := sendHello(conn, ""); err != nil {
		return
	}
	wc := &wireConn{conn: conn, metrics: newWireMetrics(metrics)}
	// Requests on one connection are dispatched concurrently so a
	// long-running acquisition call does not block quick status calls
	// pipelined behind it; a write mutex keeps response frames whole.
	// A corrupt frame (decode error) poisons only this connection: the
	// loop returns, the conn closes, and the daemon keeps serving.
	var writeMu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		var req request
		framep, err := wc.readRequest(&req)
		if err != nil {
			return
		}
		wg.Add(1)
		go func(req request, framep *[]byte) {
			defer wg.Done()
			resp := d.dispatchDedup(&req)
			// The args alias the pooled frame; dispatch has consumed
			// them, so the buffer can be recycled before the write.
			putFrame(framep)
			writeMu.Lock()
			defer writeMu.Unlock()
			_ = wc.writeResponse(&resp)
		}(req, framep)
	}
}

// dispatchDedup routes requests carrying a CallID through the reply
// cache so each logical call executes at most once: the first arrival
// runs the method, duplicates (retries whose predecessor's reply was
// lost, or concurrent resends) wait for it and replay its outcome.
// Plain requests dispatch unconditionally.
func (d *Daemon) dispatchDedup(req *request) response {
	span := d.serveSpan(req)
	resp := d.dispatchDedupInner(req, span)
	if resp.Error != "" {
		span.SetError(errors.New(resp.Error))
	}
	span.End()
	return resp
}

// serveSpan opens the daemon-side span for a traced request (nil when
// the daemon has no tracer or the request no traceparent).
func (d *Daemon) serveSpan(req *request) *trace.Span {
	if req.TP == "" {
		return nil
	}
	d.mu.Lock()
	tr := d.tracer
	d.mu.Unlock()
	if tr == nil {
		return nil
	}
	remote, ok := trace.ParseTraceparent(req.TP)
	if !ok {
		return nil
	}
	span := tr.StartRemote(remote, "serve "+req.Object+"."+req.Method, trace.ClassControl)
	span.SetAttr("object", req.Object)
	span.SetAttr("method", req.Method)
	return span
}

func (d *Daemon) dispatchDedupInner(req *request, span *trace.Span) response {
	if req.CallID == "" {
		return d.dispatch(req)
	}
	d.mu.Lock()
	rc := d.replies
	metrics := d.metrics
	d.mu.Unlock()
	e, first := rc.begin(req.CallID)
	if !first {
		<-e.done
		if metrics != nil {
			metrics.Counter("pyro.dedup_hits").Inc()
		}
		span.Event("dedup.replay", "call_id", req.CallID)
		return response{ID: req.ID, Result: e.result, Error: e.errMsg}
	}
	resp := d.dispatch(req)
	e.complete(resp.Result, resp.Error)
	return resp
}

// dispatch resolves and invokes a request, converting panics and type
// mismatches into error responses.
func (d *Daemon) dispatch(req *request) (resp response) {
	resp.ID = req.ID
	defer func() {
		if r := recover(); r != nil {
			resp.Result = nil
			resp.Error = fmt.Sprintf("pyro: panic in %s.%s: %v", req.Object, req.Method, r)
		}
	}()

	d.mu.Lock()
	obj, ok := d.objects[req.Object]
	trace := d.Trace
	audit := d.Audit
	d.mu.Unlock()
	if !ok {
		resp.Error = fmt.Sprintf("pyro: unknown object %q", req.Object)
		return resp
	}
	m, ok := obj.methods[req.Method]
	if !ok {
		resp.Error = fmt.Sprintf("pyro: object %q has no method %q", req.Object, req.Method)
		return resp
	}
	if trace != nil {
		trace(fmt.Sprintf("call %s.%s/%d", req.Object, req.Method, len(req.Args)))
	}
	if audit != nil {
		audit(req.Object, req.Method, req.Args)
	}

	mt := m.Type
	wantArgs := mt.NumIn() - 1 // minus receiver
	if len(req.Args) != wantArgs {
		resp.Error = fmt.Sprintf("pyro: %s.%s takes %d arguments, got %d",
			req.Object, req.Method, wantArgs, len(req.Args))
		return resp
	}
	in := make([]reflect.Value, wantArgs+1)
	in[0] = obj.value
	for i := 0; i < wantArgs; i++ {
		pv := reflect.New(mt.In(i + 1))
		if err := json.Unmarshal(req.Args[i], pv.Interface()); err != nil {
			resp.Error = fmt.Sprintf("pyro: %s.%s argument %d: %v", req.Object, req.Method, i, err)
			return resp
		}
		in[i+1] = pv.Elem()
	}

	out := m.Func.Call(in)
	var result reflect.Value
	for i, o := range out {
		if mt.Out(i) == errType {
			if !o.IsNil() {
				resp.Error = o.Interface().(error).Error()
				return resp
			}
			continue
		}
		result = o
	}
	if result.IsValid() {
		raw, err := json.Marshal(result.Interface())
		if err != nil {
			resp.Error = fmt.Sprintf("pyro: %s.%s: encode result: %v", req.Object, req.Method, err)
			return resp
		}
		resp.Result = raw
	}
	return resp
}
