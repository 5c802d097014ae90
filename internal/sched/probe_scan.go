package sched

import (
	"context"
	"fmt"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/microscope"
	"ice/internal/sched/health"
	"ice/internal/telemetry"
)

// ScanProber is the microscope's LabProber: StatusScan probes and an
// AbortScan quarantine fence over the same kind of shared probe
// session. Its watchdog heartbeats via StatusScan instead of
// JKemStatus, since the scan station's daemon exports no echem objects.
type ScanProber struct {
	// Connector opens the probe session (same connector the runner uses).
	Connector ScanConnector
	probeSession[*microscope.Client]
}

func (p *ScanProber) dial() (*core.RemoteSession, datachan.Share, *microscope.Client, error) {
	session, mount, object, err := p.Connector.ConnectScan()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scan probe connect: %w", err)
	}
	caller, err := session.Object(object, microscope.NonIdempotentScanMethods...)
	if err != nil {
		session.Close()
		mount.Close()
		return nil, nil, nil, fmt.Errorf("scan probe object: %w", err)
	}
	client := microscope.NewClient(caller)
	session.SetHeartbeat(func() error {
		_, err := client.Status(context.Background())
		return err
	})
	return session, mount, client, nil
}

// Prober builds the health.Prober for the scan instrument: a status
// read, where a recovery probe also requires an idle column.
func (p *ScanProber) Prober() health.Prober {
	return func(ctx context.Context, recovering bool) error {
		status := func(client *microscope.Client) (string, error) { return client.Status(ctx) }
		return p.probe(p.dial, recovering, "stem recovery probe: scanner still busy", status)
	}
}

// Fence is the scan quarantine fence: abort any in-flight acquisition
// so a wedged raster terminates as an explicit aborted partial rather
// than completing behind the scheduler's back after requeue. Abort is
// tolerated when nothing is running.
func (p *ScanProber) Fence(ctx context.Context, resource string) {
	if resourceClass(resource) == "stem" {
		p.fence(ctx, p.dial, func(client *microscope.Client) (string, error) { return client.Abort(ctx) })
	}
}

// HealthSource exposes scan-probe traffic — and, when the probe
// session is open, its watchdog's scansession.* liveness series — to
// /v1/metrics.
func (p *ScanProber) HealthSource() telemetry.Source {
	return p.source("scanprobe.", "scansession.")
}
