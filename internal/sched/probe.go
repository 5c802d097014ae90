package sched

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/sched/health"
	"ice/internal/telemetry"
)

// probeSession is what LabProber and ScanProber share: one lazily
// dialled control session for all probes and fences (opening a
// connection per probe would itself stress a sick agent), whose
// watchdog doubles as the liveness sentinel; the probe and failure
// counters; and the telemetry source. C is the handle a prober's calls
// go through.
type probeSession[C any] struct {
	mu      sync.Mutex
	session *core.RemoteSession
	mount   datachan.Share
	client  C
	// probes / failures count outcomes for the telemetry source.
	probes, failures int64
}

// acquire returns the shared session and handle, opening them with
// dial on first use.
func (p *probeSession[C]) acquire(dial func() (*core.RemoteSession, datachan.Share, C, error)) (*core.RemoteSession, C, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.session == nil {
		session, mount, client, err := dial()
		if err != nil {
			return nil, client, err
		}
		session.StartWatchdog(2*time.Second, 3)
		p.session, p.mount, p.client = session, mount, client
	}
	return p.session, p.client, nil
}

// probe runs one status read, bounded by the supervisor's ProbeTimeout
// (the deadline is the hang detector), and counts the outcome. With
// idle set, a half-open recovery probe, the reply must say busy=0: no
// legitimate holder existed during quarantine, so a busy instrument is
// a wedged acquisition still draining, and busy is that failure's
// message. A transport-class failure drops the session so the next
// probe redials: the session, not the instrument, may be broken.
func (p *probeSession[C]) probe(dial func() (*core.RemoteSession, datachan.Share, C, error), idle bool, busy string, status func(C) (string, error)) error {
	_, client, err := p.acquire(dial)
	if err == nil {
		var reply string
		reply, err = status(client)
		if err == nil && idle && !strings.Contains(reply, "busy=0") {
			err = fmt.Errorf("%s (%s)", busy, reply)
		}
		if err != nil && health.Classify(err) == health.ClassTransport {
			p.Close()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probes++
	if err != nil {
		p.failures++
	}
	return err
}

// fence runs a quarantine fence call bound to ctx on the shared
// handle; a failed fence drops the session.
func (p *probeSession[C]) fence(ctx context.Context, dial func() (*core.RemoteSession, datachan.Share, C, error), call func(C) (string, error)) {
	session, client, err := p.acquire(dial)
	if err != nil {
		return
	}
	session.BindCallContext(ctx)
	defer session.BindCallContext(context.Background())
	if _, err := call(client); err != nil {
		p.Close()
	}
}

// Close releases the probe session.
func (p *probeSession[C]) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.session != nil {
		p.session.Close()
		p.mount.Close()
		var zero C
		p.session, p.mount, p.client = nil, nil, zero
	}
}

// source exposes probe traffic as <prefix>total/failures/connected
// and, while the session is open, its watchdog's liveness series under
// sessionPrefix.
func (p *probeSession[C]) source(prefix, sessionPrefix string) telemetry.Source {
	return func() map[string]int64 {
		p.mu.Lock()
		out := map[string]int64{prefix + "total": p.probes, prefix + "failures": p.failures, prefix + "connected": 0}
		session := p.session
		p.mu.Unlock()
		if session != nil {
			out[prefix+"connected"] = 1
			for k, v := range session.HealthSource(sessionPrefix)() {
				out[k] = v
			}
		}
		return out
	}
}

// LabProber bridges the health supervisor to the echem lab: cheap
// status probes and a quarantine fence over one shared probe session
// opened through the gateway's Connector.
//
//	p := &LabProber{Connector: conn}
//	sched.RegisterProber(sched.ResourceSP200, p.ProberFor(sched.ResourceSP200))
//	sched.RegisterProber(sched.ResourceJKem, p.ProberFor(sched.ResourceJKem))
//	sched.SetFence(p.FenceFor)
type LabProber struct {
	// Connector opens the probe session (same connector the runner uses).
	Connector Connector
	probeSession[*core.RemoteSession]
}

func (p *LabProber) dial() (*core.RemoteSession, datachan.Share, *core.RemoteSession, error) {
	session, mount, err := p.Connector.ConnectSession()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("probe connect: %w", err)
	}
	return session, mount, session, nil
}

// ProberFor builds the health.Prober for one instrument: a status read,
// where a recovery probe of the potentiostat also requires an idle
// channel (the J-Kem's commands are discrete; it has nothing to drain).
func (p *LabProber) ProberFor(resource string) health.Prober {
	class := resourceClass(resource)
	return func(ctx context.Context, recovering bool) error {
		idle := recovering && class == "sp200"
		return p.probe(p.dial, idle, "sp200 recovery probe: channel still busy", func(session *core.RemoteSession) (string, error) {
			switch class {
			case "sp200":
				return session.SP200StatusCtx(ctx)
			case "jkem":
				return session.JKemStatusCtx(ctx)
			}
			return "", fmt.Errorf("probe: unknown instrument class %q", class)
		})
	}
}

// FenceFor is the quarantine fence: when the potentiostat's breaker
// opens mid-acquisition it aborts the channel, so the wedged run ends
// as an explicit ErrAborted partial instead of completing behind the
// scheduler's back after the job was checkpoint-requeued (which would
// break exactly-once accounting). Abort is tolerated when no
// acquisition runs. The J-Kem needs no fence: its commands are discrete.
func (p *LabProber) FenceFor(ctx context.Context, resource string) {
	if resourceClass(resource) == "sp200" {
		p.fence(ctx, p.dial, (*core.RemoteSession).AbortSP200)
	}
}

// HealthSource exposes probe traffic — and, when the probe session is
// open, its watchdog's session.* liveness series — to /v1/metrics.
func (p *LabProber) HealthSource() telemetry.Source {
	return p.source("probe.", "session.")
}
