package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ice/internal/labreg"
	"ice/internal/ml"
	"ice/internal/sched"
	"ice/internal/workflow"
)

// labConfigPath is the facility the lab workloads run against,
// relative to the bench module root (the directory `go run -C bench`
// runs the program in).
const labConfigPath = "labs/facility.yaml"

// icegated's flag defaults, restated here because the harness opens
// the scheduler the way `icegated -lab` does without importing package
// main.
const (
	queueCapacity    = 64
	workers          = 2
	leaseTTL         = 10 * time.Second
	probeInterval    = time.Second
	minDeadline      = 500 * time.Millisecond
	campaignCVPoints = 300
	defaultCacheMax  = 256 << 20
)

// classifierConfig is the training recipe dag.ClassifierForSeed uses
// for its default seed. The harness trains directly so every set-up
// pays for training (ClassifierForSeed memoises per process).
var classifierConfig = ml.GenerateConfig{PerClass: 12, Samples: 300, BaseSeed: 7}

// rigConfig is what a workload asks of the system under test.
type rigConfig struct {
	// lab brings up the facility and a LabRunner; false installs the
	// null runner with health supervision disabled.
	lab bool
	// cacheMax is LabRunner.CacheMaxBytes.
	cacheMax int64
	// tenants carries the fair-share weights.
	tenants map[string]sched.TenantLimits
}

// rig is one facility + scheduler + gateway listening on loopback:
// the system under test, brought up the way `icegated -lab` does it.
type rig struct {
	dir   string
	fac   *labreg.Facility
	sched *sched.Scheduler
	gw    *sched.Gateway
	base  string

	srv          *http.Server
	served       chan error
	closeProbers func()
	closed       bool
}

// nullRunner answers every job with a fixed result: the lab does no
// work, so the gateway, scheduler, WAL, tracer and telemetry do all
// of it.
var nullRunner = sched.RunnerFunc(func(context.Context, sched.Job, func(string, string)) (json.RawMessage, error) {
	return json.RawMessage(`{"ok":true}`), nil
})

// newRig brings the system up under stateRoot. tr, when non-nil,
// wraps the runner, connector and data share in the harness's span
// decorators (the traced run); nil leaves production types unwrapped.
func newRig(stateRoot string, cfg rigConfig, tr *tracer) (_ *rig, err error) {
	dir, err := os.MkdirTemp(stateRoot, "rig-")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, closeProbers: func() {}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	health := sched.HealthConfig{Disabled: true, MinDeadline: minDeadline}
	var runner sched.Runner = nullRunner
	var lab *sched.LabRunner
	if cfg.lab {
		r.fac, err = labreg.LoadAndBuild(labConfigPath, labreg.BuildOptions{Dir: filepath.Join(dir, "lab")})
		if err != nil {
			return nil, fmt.Errorf("build facility from %s (run from the bench module root): %w", labConfigPath, err)
		}
		if err := r.fac.EnableAudit(); err != nil {
			return nil, err
		}
		clf, _, err := ml.TrainNormalityClassifier(classifierConfig)
		if err != nil {
			return nil, fmt.Errorf("train classifier: %w", err)
		}
		health = sched.HealthConfig{
			ProbeInterval: probeInterval,
			MinDeadline:   minDeadline,
			Instruments:   r.fac.HealthInstruments(),
			ClassesFor:    r.fac.ClassesFor,
		}
		cell := r.fac.EchemStation().Agent.Cell()
		lab = &sched.LabRunner{
			Connector:        r.fac,
			CampaignCVPoints: campaignCVPoints,
			CacheMaxBytes:    cfg.cacheMax,
			Classifier:       clf,
			// Lab upkeep: every cv job dispenses 6 mL into the 20 mL cell
			// and nothing else drains it, so the fourth job would overflow.
			// Drain under the job's own lease, just before its fill.
			OnTask: func(_ string, rec workflow.TaskRecord) {
				if rec.TaskID == "C" && rec.Status == workflow.Running.String() {
					cell.Drain()
				}
			},
		}
		runner = lab
	}

	r.sched, err = sched.New(sched.Config{
		Dir:           filepath.Join(dir, "state"),
		QueueCapacity: queueCapacity,
		Workers:       workers,
		LeaseTTL:      leaseTTL,
		Tenants:       cfg.tenants,
		Health:        health,
	})
	if err != nil {
		return nil, err
	}
	if lab != nil {
		lab.Leases, lab.Dir, lab.Metrics = r.sched.Leases(), r.sched.Dir(), r.sched.Metrics()
	}
	if tr != nil {
		runner = tr.wrapRunner(runner, lab)
		if r.fac != nil {
			tr.meterDaemons(r.fac)
		}
	}
	r.sched.SetRunner(runner)
	r.gw = sched.NewGateway(r.sched)
	if r.fac != nil {
		r.closeProbers = wireFacilityProbers(r.sched, r.gw, r.fac)
	}
	if err := r.sched.Start(); err != nil {
		return nil, err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.base = "http://" + l.Addr().String()
	r.srv = &http.Server{Handler: r.gw}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(l) }()
	return r, nil
}

// close tears the rig down and removes its state directory.
func (r *rig) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var errs []error
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, r.srv.Shutdown(ctx))
		cancel()
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if r.sched != nil {
		r.sched.Stop()
	}
	r.closeProbers()
	if r.fac != nil {
		errs = append(errs, r.fac.Close())
	}
	errs = append(errs, os.RemoveAll(r.dir))
	return errors.Join(errs...)
}

// wireFacilityProbers wires health probes the way icegated -lab does:
// the echem prober covers the sp200/jkem classes, the scan prober the
// stem class, and the quarantine fence fans out to both.
func wireFacilityProbers(s *sched.Scheduler, gw *sched.Gateway, f *labreg.Facility) func() {
	instruments := f.HealthInstruments()
	var closers []func()
	var fences []func(ctx context.Context, resource string)

	var echemRes []string
	for class, resources := range instruments {
		if class != "stem" {
			echemRes = append(echemRes, resources...)
		}
	}
	if len(echemRes) > 0 {
		p := &sched.LabProber{Connector: f}
		for _, res := range echemRes {
			s.RegisterProber(res, p.ProberFor(res))
		}
		fences = append(fences, p.FenceFor)
		gw.Registry().AddSource(p.HealthSource())
		closers = append(closers, p.Close)
	}
	if scanRes := instruments["stem"]; len(scanRes) > 0 {
		p := &sched.ScanProber{Connector: f}
		for _, res := range scanRes {
			s.RegisterProber(res, p.Prober())
		}
		fences = append(fences, p.Fence)
		gw.Registry().AddSource(p.HealthSource())
		closers = append(closers, p.Close)
	}
	s.SetFence(func(ctx context.Context, resource string) {
		for _, fence := range fences {
			fence(ctx, resource)
		}
	})
	return func() {
		for _, c := range closers {
			c()
		}
	}
}
