package pyro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ice/internal/telemetry"
	"ice/internal/trace"
)

// Dialer opens a connection to a daemon address. nil selects plain
// TCP; the network simulator supplies its own.
type Dialer func(addr string) (net.Conn, error)

// RemoteError is returned when the remote method reported an error.
type RemoteError struct {
	// URI and Method identify the failed call.
	URI    URI
	Method string
	// Msg is the remote error text.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("pyro: remote %s.%s: %s", e.URI.Object, e.Method, e.Msg)
}

// ErrProxyClosed is returned by calls on a closed proxy.
var ErrProxyClosed = errors.New("pyro: proxy closed")

// Proxy is the client handle to one remote object — the Pyro4 Proxy of
// the paper's Fig. 3 client side. A Proxy may be shared by goroutines:
// calls are pipelined over the single connection (requests are sent as
// they arrive and responses are matched back by ID), so a slow call on
// one goroutine does not serialise the others.
type Proxy struct {
	uri URI
	// Timeout bounds each call round trip when > 0.
	Timeout time.Duration

	conn net.Conn
	// wire frames requests and responses and carries the optional
	// pyro.wire.* telemetry.
	wire *wireConn

	writeMu sync.Mutex // serialises request frames

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan response
	closed  bool
	readErr error
}

// DialConfig tunes a proxy connection.
type DialConfig struct {
	// Token is the shared-secret credential for a daemon whose
	// AuthToken is set.
	Token string
	// Metrics, when set, receives this connection's pyro.wire.*
	// counters (bytes/frames in and out, encode/decode nanoseconds).
	Metrics *telemetry.Collector
}

// Dial connects to the object's daemon and performs the handshake,
// presenting cfg's credential and counting on cfg's collector.
func Dial(uri URI, dialer Dialer, cfg DialConfig) (*Proxy, error) {
	if dialer == nil {
		dialer = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}
	conn, err := dialer(uri.Addr())
	if err != nil {
		return nil, fmt.Errorf("pyro: dial %s: %w", uri.Addr(), err)
	}
	if err := sendHello(conn, cfg.Token); err != nil {
		conn.Close()
		return nil, err
	}
	if err := expectHello(conn, ""); err != nil {
		conn.Close()
		return nil, err
	}
	p := &Proxy{
		uri:     uri,
		conn:    conn,
		wire:    &wireConn{conn: conn, metrics: newWireMetrics(cfg.Metrics)},
		pending: make(map[uint64]chan response),
	}
	go p.readLoop()
	return p, nil
}

// readLoop demultiplexes responses to their waiting callers.
func (p *Proxy) readLoop() {
	for {
		var resp response
		if err := p.wire.readResponse(&resp); err != nil {
			p.failAll(err)
			return
		}
		p.mu.Lock()
		ch, ok := p.pending[resp.ID]
		if ok {
			delete(p.pending, resp.ID)
		}
		p.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// failAll wakes every pending caller with the terminal error.
func (p *Proxy) failAll(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.readErr == nil {
		p.readErr = err
	}
	for id, ch := range p.pending {
		delete(p.pending, id)
		close(ch)
	}
}

// URI returns the remote object's URI.
func (p *Proxy) URI() URI { return p.uri }

// Close tears the connection down; in-flight calls fail.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.conn.Close()
	p.failAll(ErrProxyClosed)
	return err
}

// Call invokes a remote method and returns the raw JSON result (nil
// for void methods).
func (p *Proxy) Call(method string, args ...any) (json.RawMessage, error) {
	return p.call(context.Background(), "", method, args...)
}

// CallWithID is Call carrying a logical call ID the daemon dedups on:
// retrying the same callID after a transport failure returns the first
// execution's result instead of re-executing the method.
func (p *Proxy) CallWithID(callID, method string, args ...any) (json.RawMessage, error) {
	return p.call(context.Background(), callID, method, args...)
}

// CallCtx is Call bounded by ctx in addition to the proxy Timeout.
func (p *Proxy) CallCtx(ctx context.Context, method string, args ...any) (json.RawMessage, error) {
	return p.call(ctx, "", method, args...)
}

// call sends one request and waits for its response, the call ID and
// context threaded through. When ctx carries a trace span, the call
// gets a client-side child span whose traceparent rides the request
// envelope so the daemon's server span parents under it.
func (p *Proxy) call(ctx context.Context, callID, method string, args ...any) (raw json.RawMessage, err error) {
	_, span := trace.Start(ctx, "call "+p.uri.Object+"."+method, trace.ClassControl)
	if span != nil {
		span.SetAttr("object", p.uri.Object)
		span.SetAttr("method", method)
		defer func() { span.EndErr(err) }()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrProxyClosed
	}
	if p.readErr != nil {
		err := p.readErr
		p.mu.Unlock()
		return nil, fmt.Errorf("pyro: connection failed: %w", err)
	}
	p.seq++
	id := p.seq
	ch := make(chan response, 1)
	p.pending[id] = ch
	p.mu.Unlock()

	req := request{ID: id, CallID: callID, Object: p.uri.Object, Method: method, TP: span.Context().Traceparent()}
	for i, a := range args {
		raw, err := json.Marshal(a)
		if err != nil {
			p.abandon(id)
			return nil, fmt.Errorf("pyro: encode argument %d of %s: %w", i, method, err)
		}
		req.Args = append(req.Args, raw)
	}

	p.writeMu.Lock()
	err = p.wire.writeRequest(&req)
	p.writeMu.Unlock()
	if err != nil {
		p.abandon(id)
		return nil, fmt.Errorf("pyro: send %s: %w", method, err)
	}

	var timeout <-chan time.Time
	if p.Timeout > 0 {
		timer := time.NewTimer(p.Timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			p.mu.Lock()
			err := p.readErr
			p.mu.Unlock()
			if err == nil {
				err = ErrProxyClosed
			}
			return nil, fmt.Errorf("pyro: receive %s: %w", method, err)
		}
		if resp.Error != "" {
			return nil, &RemoteError{URI: p.uri, Method: method, Msg: resp.Error}
		}
		return resp.Result, nil
	case <-timeout:
		p.abandon(id)
		return nil, fmt.Errorf("pyro: call %s timed out after %v", method, p.Timeout)
	case <-ctx.Done():
		p.abandon(id)
		return nil, fmt.Errorf("pyro: call %s: %w", method, ctx.Err())
	}
}

// abandon forgets a pending call (failed send or timeout).
func (p *Proxy) abandon(id uint64) {
	p.mu.Lock()
	delete(p.pending, id)
	p.mu.Unlock()
}

// CallInto invokes a remote method and decodes the result into out
// (which must be a pointer). Pass nil out for void methods.
func (p *Proxy) CallInto(out any, method string, args ...any) error {
	return p.CallIntoCtx(context.Background(), out, method, args...)
}

// CallIntoCtx is CallInto bounded by ctx; a trace span in ctx is
// propagated into the request envelope.
func (p *Proxy) CallIntoCtx(ctx context.Context, out any, method string, args ...any) error {
	raw, err := p.call(ctx, "", method, args...)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if raw == nil {
		return fmt.Errorf("pyro: %s returned no result to decode", method)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("pyro: decode %s result: %w", method, err)
	}
	return nil
}
