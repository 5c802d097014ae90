package pyro

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ice/internal/backoff"
	"ice/internal/telemetry"
	"ice/internal/trace"
)

// ReconnectingProxy wraps a Proxy with automatic redial: when a call
// fails on a transport error (link flap, daemon restart), it re-dials
// the daemon with jittered exponential backoff and retries the call.
// Remote application errors (RemoteError) are never retried — they are
// answers, not transport failures.
//
// Methods marked via MarkExactlyOnce carry a client-generated call ID
// so the daemon executes them at most once even when a reply is lost
// in transit and the call is retried: the retry returns the first
// execution's cached result instead of re-running the command (the
// guarantee a remote DispenseSyringePump needs on a WAN).
type ReconnectingProxy struct {
	uri    URI
	dialer Dialer
	token  string

	// MaxRetries bounds redial attempts per call (default 3).
	MaxRetries int
	// Backoff is the initial redial delay, doubled per attempt with
	// ±50% jitter so concurrent clients don't redial in lockstep
	// (default 50 ms).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 2 s).
	MaxBackoff time.Duration
	// Timeout is applied to the underlying proxy's calls.
	Timeout time.Duration

	// callPrefix makes this handle's call IDs globally unique.
	callPrefix string
	callSeq    atomic.Uint64

	mu          sync.Mutex
	proxy       *Proxy
	closed      bool
	dialed      bool
	exactlyOnce map[string]bool
	metrics     *telemetry.Collector
	rng         backoff.Policy

	// done unblocks backoff sleeps when the handle is closed.
	done chan struct{}
}

// NewReconnectingProxy returns a handle that dials lazily on first
// use. dialer may be nil for plain TCP; token is the optional
// shared-secret credential.
func NewReconnectingProxy(uri URI, dialer Dialer, token string) *ReconnectingProxy {
	return &ReconnectingProxy{
		uri: uri, dialer: dialer, token: token,
		MaxRetries: 3, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second,
		callPrefix: newCallPrefix(),
		done:       make(chan struct{}),
	}
}

// newCallPrefix draws a random identity for this client handle so call
// IDs from different clients (or restarts) never collide in the
// daemon's reply cache.
func newCallPrefix() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived prefix; collisions would need two
		// handles created in the same nanosecond.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// URI returns the remote object's URI.
func (r *ReconnectingProxy) URI() URI { return r.uri }

// MarkExactlyOnce declares methods non-idempotent: their retries carry
// a stable call ID and are deduplicated by the daemon instead of
// re-executed. Idempotent methods (status reads, absolute setpoints)
// should stay unmarked so they don't occupy reply-cache slots.
func (r *ReconnectingProxy) MarkExactlyOnce(methods ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.exactlyOnce == nil {
		r.exactlyOnce = make(map[string]bool, len(methods))
	}
	for _, m := range methods {
		r.exactlyOnce[m] = true
	}
}

// SetMetrics attaches a telemetry collector; the handle counts retried
// calls ("pyro.retries") and re-dials ("pyro.redials").
func (r *ReconnectingProxy) SetMetrics(c *telemetry.Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = c
}

func (r *ReconnectingProxy) counterInc(name string) {
	r.mu.Lock()
	c := r.metrics
	r.mu.Unlock()
	if c != nil {
		c.Counter(name).Inc()
	}
}

// needsCallID reports whether method was marked exactly-once.
func (r *ReconnectingProxy) needsCallID(method string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exactlyOnce[method]
}

// current returns a live proxy, dialing if necessary.
func (r *ReconnectingProxy) current() (*Proxy, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrProxyClosed
	}
	if r.proxy != nil {
		return r.proxy, nil
	}
	if r.dialed {
		// Re-dial after a dropped connection.
		if r.metrics != nil {
			r.metrics.Counter("pyro.redials").Inc()
		}
	}
	p, err := Dial(r.uri, r.dialer, DialConfig{Token: r.token, Metrics: r.metrics})
	r.dialed = true
	if err != nil {
		return nil, err
	}
	p.Timeout = r.Timeout
	r.proxy = p
	return p, nil
}

// dropIf discards the cached proxy if it is still the failed one.
func (r *ReconnectingProxy) dropIf(p *Proxy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.proxy == p {
		r.proxy.Close()
		r.proxy = nil
	}
}

// Call invokes the remote method, redialing across transport failures.
func (r *ReconnectingProxy) Call(method string, args ...any) (json.RawMessage, error) {
	return r.CallCtx(context.Background(), method, args...)
}

// CallCtx is Call honoring ctx: backoff sleeps, dial waits and the
// in-flight request all abort when ctx is done or the handle closed.
func (r *ReconnectingProxy) CallCtx(ctx context.Context, method string, args ...any) (json.RawMessage, error) {
	seq := r.rng.StartWith(r.Backoff, r.MaxBackoff)
	callID := ""
	if r.needsCallID(method) {
		callID = fmt.Sprintf("%s-%d", r.callPrefix, r.callSeq.Add(1))
	}
	var lastErr error
	for attempt := 0; attempt <= r.MaxRetries; attempt++ {
		if attempt > 0 {
			r.counterInc("pyro.retries")
			// A retry is a visible fault-healing act: note it on the
			// enclosing span (each attempt's own client span is minted
			// inside call, so the event lands on the task/phase above).
			trace.SpanFromContext(ctx).Event("pyro.retry",
				"method", method, "attempt", strconv.Itoa(attempt))
			timer := time.NewTimer(seq.Next())
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, fmt.Errorf("pyro: %s interrupted during backoff: %w", method, ctx.Err())
			case <-r.done:
				timer.Stop()
				return nil, ErrProxyClosed
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pyro: %s: %w", method, err)
		}
		p, err := r.current()
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrProxyClosed) {
				return nil, err
			}
			continue
		}
		raw, err := p.call(ctx, callID, method, args...)
		if err == nil {
			return raw, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			// The daemon answered: do not retry application errors.
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		r.dropIf(p)
	}
	return nil, fmt.Errorf("pyro: %s failed after %d attempts: %w", method, r.MaxRetries+1, lastErr)
}

// CallInto is Call decoding the result into out.
func (r *ReconnectingProxy) CallInto(out any, method string, args ...any) error {
	return r.CallIntoCtx(context.Background(), out, method, args...)
}

// CallIntoCtx is CallInto honoring ctx.
func (r *ReconnectingProxy) CallIntoCtx(ctx context.Context, out any, method string, args ...any) error {
	raw, err := r.CallCtx(ctx, method, args...)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if raw == nil {
		return fmt.Errorf("pyro: %s returned no result to decode", method)
	}
	return json.Unmarshal(raw, out)
}

// Close shuts the handle down; subsequent calls fail and in-flight
// backoff sleeps abort.
func (r *ReconnectingProxy) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	proxy := r.proxy
	r.mu.Unlock()
	close(r.done)
	if proxy != nil {
		return proxy.Close()
	}
	return nil
}
