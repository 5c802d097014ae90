package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ice/internal/pyro"
	"ice/internal/telemetry"
	"ice/internal/trace"
)

// RemoteSession is the client-side handle a remote computing system
// (the DGX) holds on the control agent: typed wrappers over the two
// Pyro proxies, mirroring the notebook calls of Figs. 5a and 6a. The
// proxies may be plain (ConnectSession) or self-healing with
// exactly-once command semantics (ConnectSessionReliable).
type RemoteSession struct {
	jkem  pyro.Caller
	sp200 pyro.Caller

	// watchdog state; see watchdog.go.
	watchMu      sync.Mutex
	watchStop    chan struct{}
	heartbeat    func() error
	misses       int
	degraded     bool
	dataDegraded bool
	lastContact  time.Time

	// traceCtx is the ambient trace context bound by BindTraceContext;
	// the typed RPC wrappers parent their client spans under it.
	traceCtx atomic.Value // boundCtx
	// callCtx is the ambient call context bound by BindCallContext;
	// unlike traceCtx its deadline and cancellation ARE honored by the
	// RPC wrappers — it is how end-to-end deadline budgets reach pyro
	// calls that predate context plumbing.
	callCtx atomic.Value // boundCtx

	// Generic-object support: labreg facilities export instruments
	// beyond the classic pair (scan-steering microscopes), reached by
	// lazily-dialed proxies keyed on export name. The dial parameters
	// are remembered from ConnectSession/ConnectSessionReliable.
	objMu     sync.Mutex
	objects   map[string]pyro.Caller
	daemonURI pyro.URI
	dialer    pyro.Dialer
	opts      SessionOptions
	reliable  bool
}

// boundCtx wraps the bound context so atomic.Value always stores one
// concrete type.
type boundCtx struct{ ctx context.Context }

// BindTraceContext makes the span in ctx the ambient parent for this
// session's RPC wrappers, which predate context plumbing and take no
// ctx of their own. Only the span identity is captured — never ctx's
// deadline or cancellation — so binding cannot abort or outlive a
// call. Workflow tasks re-bind at their start so each task's RPCs
// parent under that task's span; binding a context with no span (or
// nil) clears the parent.
func (s *RemoteSession) BindTraceContext(ctx context.Context) {
	var span *trace.Span
	if ctx != nil {
		span = trace.SpanFromContext(ctx)
	}
	s.traceCtx.Store(boundCtx{trace.ContextWithSpan(context.Background(), span)})
}

// BindCallContext makes ctx the ambient base context for this
// session's RPC wrappers: its deadline and cancellation abort in-flight
// calls (pyro proxies honor ctx.Done), which is how a job's end-to-end
// deadline budget — and a workflow phase's sub-budget — bound every
// instrument call without threading ctx through dozens of typed
// wrappers. The span bound by BindTraceContext still overlays it.
// Binding nil (or context.Background()) removes the bound deadline.
func (s *RemoteSession) BindCallContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.callCtx.Store(boundCtx{ctx})
}

// rpcCtx returns the ambient context for wrapper calls: the bound call
// context (deadline + cancellation) overlaid with the bound trace
// span.
func (s *RemoteSession) rpcCtx() context.Context {
	base := context.Background()
	if b, ok := s.callCtx.Load().(boundCtx); ok {
		base = b.ctx
	}
	if b, ok := s.traceCtx.Load().(boundCtx); ok {
		if span := trace.SpanFromContext(b.ctx); span != nil {
			return trace.ContextWithSpan(base, span)
		}
	}
	return base
}

// call is a helper returning the string result of a remote method,
// carrying the session's ambient trace context.
func (s *RemoteSession) call(p pyro.Caller, method string, args ...any) (string, error) {
	var out string
	if err := p.CallIntoCtx(s.rpcCtx(), &out, method, args...); err != nil {
		return "", err
	}
	return out, nil
}

// callInto is CallInto through the ambient trace context.
func (s *RemoteSession) callInto(p pyro.Caller, out any, method string, args ...any) error {
	return p.CallIntoCtx(s.rpcCtx(), out, method, args...)
}

// Call invokes an arbitrary method on one of the session's lab
// objects — object is "jkem" or "sp200" — and renders the result as a
// string. It backs declarative workloads (the DAG engine's pyro
// nodes) where the method name is data, not code; typed wrappers
// remain the API for hardwired workflows. Results that are not
// strings (ReadTemperature returns a float) are formatted with
// fmt.Sprint.
func (s *RemoteSession) Call(object, method string, args ...any) (string, error) {
	var p pyro.Caller
	switch object {
	case "jkem":
		p = s.jkem
	case "sp200":
		p = s.sp200
	default:
		return "", fmt.Errorf("session: unknown object %q (want \"jkem\" or \"sp200\")", object)
	}
	var out any
	if err := p.CallIntoCtx(s.rpcCtx(), &out, method, args...); err != nil {
		return "", err
	}
	if out == nil {
		return "", nil
	}
	return fmt.Sprint(out), nil
}

// NonIdempotentJKemMethods are the J-Kem commands whose retry must not
// re-execute: each moves physical liquid (or forwards an arbitrary
// protocol command that might).
var NonIdempotentJKemMethods = []string{
	"WithdrawSyringePump", "DispenseSyringePump", "DrainCell", "Raw",
}

// NonIdempotentSP200Methods are the SP200 commands whose retry must
// not re-execute: each starts an acquisition (duplicating it would
// consume analyte and skew the record set) or deletes files.
var NonIdempotentSP200Methods = []string{
	"StartChannelSP200", "RunOCV", "RunCA", "RunEIS", "RunSWV",
	"RetainMeasurements",
}

// SessionOptions tunes a session's connections.
type SessionOptions struct {
	// Token is the control channel's shared-secret credential.
	Token string
	// MaxRetries bounds redials per call on a reliable session (0 = the
	// proxy default).
	MaxRetries int
	// Backoff is the initial redial delay on a reliable session (0 =
	// the proxy default).
	Backoff time.Duration
	// Metrics receives "pyro.retries" / "pyro.redials" counts and, on
	// every dialed connection, the "pyro.wire.*" framing counters.
	Metrics *telemetry.Collector
}

// dialProxy dials one plain proxy on uri with the session's credential
// and wire counters; every plain control-channel proxy core opens
// comes from here.
func dialProxy(uri pyro.URI, dialer pyro.Dialer, opts SessionOptions, timeout time.Duration) (*pyro.Proxy, error) {
	p, err := pyro.Dial(uri, dialer, pyro.DialConfig{Token: opts.Token, Metrics: opts.Metrics})
	if err != nil {
		return nil, err
	}
	p.Timeout = timeout
	return p, nil
}

// reconnectingProxy builds one lazily dialed, self-healing proxy on uri
// whose marked methods carry exactly-once call IDs; every reconnecting
// proxy core opens comes from here.
func reconnectingProxy(uri pyro.URI, dialer pyro.Dialer, opts SessionOptions, timeout time.Duration, marked []string) *pyro.ReconnectingProxy {
	p := pyro.NewReconnectingProxy(uri, dialer, opts.Token)
	p.Timeout = timeout
	if opts.MaxRetries > 0 {
		p.MaxRetries = opts.MaxRetries
	}
	if opts.Backoff > 0 {
		p.Backoff = opts.Backoff
	}
	if opts.Metrics != nil {
		p.SetMetrics(opts.Metrics)
	}
	p.MarkExactlyOnce(marked...)
	return p
}

// ConnectSession dials both instrument objects on the control agent's
// daemon (workflow task A) over plain proxies. dialer may be nil for
// plain TCP.
func ConnectSession(daemonURI pyro.URI, dialer pyro.Dialer, opts SessionOptions) (*RemoteSession, error) {
	jk, err := dialProxy(daemonURI.WithObject(JKemObject), dialer, opts, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("core: connect J-Kem object: %w", err)
	}
	// Acquisition waits happen over the SP200 proxy.
	sp, err := dialProxy(daemonURI.WithObject(SP200Object), dialer, opts, 10*time.Minute)
	if err != nil {
		jk.Close()
		return nil, fmt.Errorf("core: connect SP200 object: %w", err)
	}
	return &RemoteSession{jkem: jk, sp200: sp, daemonURI: daemonURI, dialer: dialer, opts: opts}, nil
}

// ConnectSessionReliable opens a session over reconnecting proxies:
// transport failures (lost replies, link flaps, agent restarts) are
// retried with jittered backoff, and the non-idempotent instrument
// commands carry call IDs so the agent executes each at most once —
// a retried DispenseSyringePump returns the first execution's result
// instead of dispensing twice. The proxies dial lazily: configuration
// errors surface on the first call.
func ConnectSessionReliable(daemonURI pyro.URI, dialer pyro.Dialer, opts SessionOptions) *RemoteSession {
	jk := reconnectingProxy(daemonURI.WithObject(JKemObject), dialer, opts, 30*time.Second, NonIdempotentJKemMethods)
	sp := reconnectingProxy(daemonURI.WithObject(SP200Object), dialer, opts, 10*time.Minute, NonIdempotentSP200Methods)
	return &RemoteSession{jkem: jk, sp200: sp, daemonURI: daemonURI, dialer: dialer, opts: opts, reliable: true}
}

// Object returns a proxy for an arbitrary export on the session's
// daemon — the seam that lets config-defined instruments (a labreg
// scan station, say) share the session machinery without a typed
// wrapper per device. Proxies are dialed on first use, cached per
// name, and closed with the session. nonIdempotent marks the methods
// that must carry exactly-once call IDs on a reliable session.
func (s *RemoteSession) Object(name string, nonIdempotent ...string) (pyro.Caller, error) {
	s.objMu.Lock()
	defer s.objMu.Unlock()
	if p, ok := s.objects[name]; ok {
		return p, nil
	}
	if s.daemonURI.Host == "" {
		return nil, fmt.Errorf("core: session has no daemon address for object %q", name)
	}
	// Acquisition-style waits happen on these objects too.
	uri := s.daemonURI.WithObject(name)
	var caller pyro.Caller
	if s.reliable {
		caller = reconnectingProxy(uri, s.dialer, s.opts, 10*time.Minute, nonIdempotent)
	} else {
		p, err := dialProxy(uri, s.dialer, s.opts, 10*time.Minute)
		if err != nil {
			return nil, fmt.Errorf("core: connect object %q: %w", name, err)
		}
		caller = p
	}
	if s.objects == nil {
		s.objects = map[string]pyro.Caller{}
	}
	s.objects[name] = caller
	return caller, nil
}

// Close tears down both proxies (task E's connection shutdown) and
// stops the watchdog if running.
func (s *RemoteSession) Close() error {
	s.stopWatchdog()
	err1 := s.jkem.Close()
	err2 := s.sp200.Close()
	s.objMu.Lock()
	for _, p := range s.objects {
		p.Close()
	}
	s.objects = nil
	s.objMu.Unlock()
	if err1 != nil {
		return err1
	}
	return err2
}

// J-Kem wrappers (Fig. 5a cells).

// SetRateSyringePump sets the pump rate in mL/min.
func (s *RemoteSession) SetRateSyringePump(addr int, rateMLMin float64) (string, error) {
	return s.call(s.jkem, "SetRateSyringePump", addr, rateMLMin)
}

// SetPortSyringePump selects a valve port.
func (s *RemoteSession) SetPortSyringePump(addr, port int) (string, error) {
	return s.call(s.jkem, "SetPortSyringePump", addr, port)
}

// WithdrawSyringePump draws liquid.
func (s *RemoteSession) WithdrawSyringePump(addr int, volumeML float64) (string, error) {
	return s.call(s.jkem, "WithdrawSyringePump", addr, volumeML)
}

// DispenseSyringePump dispenses liquid.
func (s *RemoteSession) DispenseSyringePump(addr int, volumeML float64) (string, error) {
	return s.call(s.jkem, "DispenseSyringePump", addr, volumeML)
}

// SetVialFractionCollector parks the collector arm.
func (s *RemoteSession) SetVialFractionCollector(addr int, position string) (string, error) {
	return s.call(s.jkem, "SetVialFractionCollector", addr, position)
}

// SetGasFlow sets the MFC purge in sccm.
func (s *RemoteSession) SetGasFlow(addr int, sccm float64) (string, error) {
	return s.call(s.jkem, "SetGasFlow", addr, sccm)
}

// SetTemperature commands the jacket setpoint in °C.
func (s *RemoteSession) SetTemperature(addr int, celsius float64) (string, error) {
	return s.call(s.jkem, "SetTemperature", addr, celsius)
}

// ReadTemperature reads the cell temperature in °C.
func (s *RemoteSession) ReadTemperature(addr int) (float64, error) {
	var out float64
	err := s.callInto(s.jkem, &out, "ReadTemperature", addr)
	return out, err
}

// SetStirring turns the cell's stir bar on or off; stirring switches
// the next sweep into the hydrodynamic (steady-state) regime.
func (s *RemoteSession) SetStirring(addr int, on bool) (string, error) {
	return s.call(s.jkem, "SetStirring", addr, on)
}

// ReadPH reads the pH probe.
func (s *RemoteSession) ReadPH(addr int) (float64, error) {
	var out float64
	err := s.callInto(s.jkem, &out, "ReadPH", addr)
	return out, err
}

// JKemStatus returns the SBC inventory line.
func (s *RemoteSession) JKemStatus() (string, error) { return s.call(s.jkem, "Status") }

// JKemStatusCtx is JKemStatus bounded by the caller's context — the
// health supervisor's probe path, where the deadline is the detector:
// a hung SBC controller cannot answer inside it.
func (s *RemoteSession) JKemStatusCtx(ctx context.Context) (string, error) {
	var out string
	err := s.jkem.CallIntoCtx(ctx, &out, "Status")
	return out, err
}

// RawJKem forwards a literal protocol command.
func (s *RemoteSession) RawJKem(cmd string) (string, error) { return s.call(s.jkem, "Raw", cmd) }

// CallExitJKemAPI is the Fig. 5a teardown cell.
func (s *RemoteSession) CallExitJKemAPI() (string, error) { return s.call(s.jkem, "ExitJKemAPI") }

// DrainCell empties the cell to waste.
func (s *RemoteSession) DrainCell() (string, error) { return s.call(s.jkem, "DrainCell") }

// SP200 wrappers (Fig. 6a cells, steps 1–7).

// CallInitializeSP200API is step 1.
func (s *RemoteSession) CallInitializeSP200API(p SystemParams) (string, error) {
	return s.call(s.sp200, "InitializeSP200API", p)
}

// CallConnectSP200 is step 2.
func (s *RemoteSession) CallConnectSP200() (string, error) {
	return s.call(s.sp200, "ConnectSP200")
}

// CallLoadFirmwareSP200 is step 3.
func (s *RemoteSession) CallLoadFirmwareSP200() (string, error) {
	return s.call(s.sp200, "LoadFirmwareSP200")
}

// CallInitializeCVTechSP200 is step 4.
func (s *RemoteSession) CallInitializeCVTechSP200(p CVParams) (string, error) {
	return s.call(s.sp200, "InitializeCVTechSP200", p)
}

// CallLoadTechniqueSP200 is step 5.
func (s *RemoteSession) CallLoadTechniqueSP200() (string, error) {
	return s.call(s.sp200, "LoadTechniqueSP200")
}

// CallStartChannelSP200 is step 6.
func (s *RemoteSession) CallStartChannelSP200() (string, error) {
	return s.call(s.sp200, "StartChannelSP200")
}

// CallGetTechPathRslt is step 7: wait for acquisition and learn the
// measurement file name.
func (s *RemoteSession) CallGetTechPathRslt() (string, error) {
	return s.call(s.sp200, "GetTechPathRslt")
}

// CallGetTechFileName returns the in-flight acquisition's measurement
// file name without blocking — the handle a streaming retrieval tails
// while step 7 is still waiting on the pipelined control channel.
func (s *RemoteSession) CallGetTechFileName() (string, error) {
	return s.call(s.sp200, "GetTechFileName")
}

// AbortSP200 cancels a running acquisition (remote emergency stop).
func (s *RemoteSession) AbortSP200() (string, error) {
	return s.call(s.sp200, "AbortSP200")
}

// CallDisconnectSP200 is the task-E instrument teardown.
func (s *RemoteSession) CallDisconnectSP200() (string, error) {
	return s.call(s.sp200, "DisconnectSP200")
}

// SP200Status returns the instrument state line.
func (s *RemoteSession) SP200Status() (string, error) {
	return s.call(s.sp200, "StatusSP200")
}

// SP200StatusCtx is SP200Status bounded by the caller's context (the
// health probe path; see JKemStatusCtx).
func (s *RemoteSession) SP200StatusCtx(ctx context.Context) (string, error) {
	var out string
	err := s.sp200.CallIntoCtx(ctx, &out, "StatusSP200")
	return out, err
}

// ResetSP200 forces the potentiostat back to its power-on state. A
// client that crashed mid-acquisition leaves the instrument partway
// through the eight-step pipeline, where re-running Initialize is
// illegal; Disconnect is valid from every powered state, and an
// instrument that is already off needs no reset, so this is the safe
// preamble before resuming a checkpointed workflow.
func (s *RemoteSession) ResetSP200() error {
	_, err := s.CallDisconnectSP200()
	if err != nil && strings.Contains(err.Error(), "invalid in current state") {
		return nil // already off
	}
	return err
}

// RetainMeasurements prunes the agent's measurement directory to the
// newest keep files.
func (s *RemoteSession) RetainMeasurements(keep int) (int, error) {
	var out int
	err := s.callInto(s.sp200, &out, "RetainMeasurements", keep)
	return out, err
}

// ListMeasurements fetches the remote measurement catalog.
func (s *RemoteSession) ListMeasurements() ([]MeasurementInfo, error) {
	var out []MeasurementInfo
	err := s.callInto(s.sp200, &out, "ListMeasurements")
	return out, err
}

// RunOCV runs an open-circuit monitor on the auxiliary channel.
func (s *RemoteSession) RunOCV(seconds float64, points int) (string, error) {
	return s.call(s.sp200, "RunOCV", seconds, points)
}

// RunCA runs a chronoamperometry step on the auxiliary channel.
func (s *RemoteSession) RunCA(restV, stepV, restS, stepS float64, points int) (string, error) {
	return s.call(s.sp200, "RunCA", restV, stepV, restS, stepS, points)
}

// RunEIS runs an impedance sweep on the auxiliary channel and returns
// the spectrum file name.
func (s *RemoteSession) RunEIS(p EISParams) (string, error) {
	return s.call(s.sp200, "RunEIS", p)
}

// RunSWV runs a square-wave voltammetry sweep on the auxiliary channel
// and returns the differential voltammogram's file name.
func (s *RemoteSession) RunSWV(p SWVParams) (string, error) {
	return s.call(s.sp200, "RunSWV", p)
}
