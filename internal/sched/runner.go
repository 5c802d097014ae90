package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"ice/internal/campaign"
	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/datachan"
	"ice/internal/jsonl"
	"ice/internal/ml"
	"ice/internal/pyro"
	"ice/internal/telemetry"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// Connector opens cross-facility handles for one job. The gateway
// daemon uses a TCP connector towards a real control agent; tests and
// icegated -selflab use a Deployment connector over netsim.
type Connector interface {
	// ConnectSession opens instrument handles (cv jobs).
	ConnectSession() (*core.RemoteSession, datachan.Share, error)
	// ConnectLab opens extended-lab handles (campaign jobs; the agent
	// must be serving the synthesis and robot stations).
	ConnectLab() (*core.LabSession, datachan.Share, error)
}

// DeploymentConnector serves jobs from an in-process netsim
// Deployment — the shape every test and icegated -selflab use.
type DeploymentConnector struct {
	// D is the deployed ICE.
	D *core.Deployment
	// Host is the remote end of the connections (e.g. netsim.HostDGX).
	Host string
	// NewMount, when set, replaces the default data mount — chaos tests
	// hand out reliable mounts that ride out injected faults.
	NewMount func() (datachan.Share, error)
}

// ConnectSession implements Connector.
func (c *DeploymentConnector) ConnectSession() (*core.RemoteSession, datachan.Share, error) {
	session, mount, err := c.D.ConnectFrom(c.Host)
	if err != nil {
		return nil, nil, err
	}
	share, err := c.replaceMount(mount)
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, share, nil
}

// ConnectLab implements Connector.
func (c *DeploymentConnector) ConnectLab() (*core.LabSession, datachan.Share, error) {
	session, mount, err := c.D.ConnectLabFrom(c.Host)
	if err != nil {
		return nil, nil, err
	}
	share, err := c.replaceMount(mount)
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, share, nil
}

func (c *DeploymentConnector) replaceMount(mount *datachan.Mount) (datachan.Share, error) {
	if c.NewMount == nil {
		return mount, nil
	}
	mount.Close()
	return c.NewMount()
}

// NetConnector reaches a control agent over real TCP — the daemon's
// production path (cmd/icegated -agent).
type NetConnector struct {
	// Agent is the control agent's host.
	Agent string
	// ControlPort and DataPort are the paper's channel ports.
	ControlPort, DataPort int
	// Token is the control-channel credential.
	Token string
	// Reliable retries control commands with exactly-once semantics.
	Reliable bool
	// ReliableData self-heals the data mount across redials.
	ReliableData bool
}

func (c *NetConnector) uri() pyro.URI {
	return pyro.URI{Object: core.JKemObject, Host: c.Agent, Port: c.ControlPort}
}

func (c *NetConnector) dataAddr() string {
	return fmt.Sprintf("%s:%d", c.Agent, c.DataPort)
}

func (c *NetConnector) mount() (datachan.Share, error) {
	if c.ReliableData {
		addr := c.dataAddr()
		return datachan.NewReliableMount(func() (net.Conn, error) {
			return net.Dial("tcp", addr)
		}), nil
	}
	conn, err := net.Dial("tcp", c.dataAddr())
	if err != nil {
		return nil, err
	}
	return datachan.NewMount(conn), nil
}

// ConnectSession implements Connector.
func (c *NetConnector) ConnectSession() (*core.RemoteSession, datachan.Share, error) {
	opts := core.SessionOptions{Token: c.Token}
	var session *core.RemoteSession
	if c.Reliable {
		session = core.ConnectSessionReliable(c.uri(), nil, opts)
	} else {
		var err error
		session, err = core.ConnectSession(c.uri(), nil, opts)
		if err != nil {
			return nil, nil, err
		}
	}
	mount, err := c.mount()
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, mount, nil
}

// ConnectLab implements Connector.
func (c *NetConnector) ConnectLab() (*core.LabSession, datachan.Share, error) {
	session, err := core.ConnectLabSession(c.uri(), nil, c.Token)
	if err != nil {
		return nil, nil, err
	}
	mount, err := c.mount()
	if err != nil {
		session.Close()
		return nil, nil, err
	}
	return session, mount, nil
}

// CVResult is a cv job's JSON result: the digest-verified measurement
// and its analysis.
type CVResult struct {
	File         string  `json:"file"`
	SHA256       string  `json:"sha256"`
	Points       int     `json:"points"`
	AnodicPeakUA float64 `json:"anodic_peak_ua"`
	// ClassName is the ML normality verdict when the runner carries a
	// classifier ("" otherwise).
	ClassName string `json:"class_name,omitempty"`
}

// RoundResult is one completed campaign round.
type RoundResult struct {
	Round           int     `json:"round"`
	ConcentrationMM float64 `json:"concentration_mm"`
	AchievedMM      float64 `json:"achieved_mm,omitempty"`
	ScanRateMVs     float64 `json:"scan_rate_mvs"`
	PeakUA          float64 `json:"peak_ua"`
}

// CellResult is one campaign cell's outcome.
type CellResult struct {
	Name   string        `json:"name"`
	Rounds []RoundResult `json:"rounds"`
	Error  string        `json:"error,omitempty"`
}

// CampaignResult is a campaign job's JSON result.
type CampaignResult struct {
	Cells []CellResult `json:"cells"`
}

// LabRunner executes admitted jobs against the lab: cv jobs through
// the paper's tasks A–E (crash-recoverable via the workflow checkpoint
// journal), campaign jobs through campaign.Fleet. Instrument access is
// guarded by lease-backed gates that release post-GetTechPathRslt, so
// one tenant's WAN retrieval and analysis overlap the next tenant's
// instrument time.
type LabRunner struct {
	// Connector opens per-job handles.
	Connector Connector
	// Leases is the gateway's lease manager.
	Leases *Leases
	// Dir holds per-job workflow checkpoint journals ("<job>.journal").
	Dir string
	// CampaignCVPoints is the per-round acquisition size for campaign
	// cells (default 300).
	CampaignCVPoints int
	// StreamAnalysis makes cv jobs tail the measurement file during
	// acquisition and analyze online, so the verdict is ready at
	// instrument release; stream failures fall back to the classic
	// retrieval inside the workflow.
	StreamAnalysis bool
	// AcquireBudget bounds task D's acquire phase (connect through the
	// on-instrument wait). When zero and the job carries an end-to-end
	// deadline, a budget is derived from the remaining deadline, so a
	// wedged potentiostat surfaces as a phase timeout in seconds rather
	// than riding out the lease TTL.
	AcquireBudget time.Duration
	// OnTask, when set, observes every workflow checkpoint record as it
	// is journaled, synchronously — crash drills use it to cut the
	// daemon down at an exact task boundary.
	OnTask func(jobID string, rec workflow.TaskRecord)
	// Resources overrides the instrument lease names the echem jobs'
	// gates contend on (default: the shared sp200/jkem pair). A cluster
	// node scopes them per facility ("facA/sp200/ch1") so adopted
	// foreign jobs never collide with local ones in the lease table.
	Resources []string
	// MirrorJournal, when set, replicates each workflow checkpoint line
	// to the cluster's peer(s) synchronously — the workflow engine does
	// not proceed past a task boundary until the checkpoint is
	// acknowledged remotely, which is what makes exactly-once resume
	// after failover possible.
	MirrorJournal func(jobID string, line []byte) error
	// Metrics receives the runner's dag.* counters when set.
	Metrics *telemetry.Collector
	// Classifier, when set, classifies cv measurements (the verdict
	// lands in CVResult.ClassName) and overrides seed-derived training
	// for DAG ml-classify nodes.
	Classifier *ml.Ensemble
	// CacheMaxBytes caps the DAG blob cache's object store; least-
	// recently-used blobs are evicted past the cap (0 = unbounded).
	CacheMaxBytes int64
}

// ErrUnknownJobKind marks a job whose kind no runner path handles.
// The scheduler classifies it as a workload fault: the job fails
// terminally and is never requeued — retrying cannot make a kind
// learn to exist.
var ErrUnknownJobKind = errors.New("sched: no runner for job kind")

// Run implements Runner.
func (r *LabRunner) Run(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	switch job.Spec.Kind {
	case KindCV:
		return r.runCV(ctx, job, emit)
	case KindCampaign:
		return r.runCampaign(ctx, job, emit)
	case KindDAG:
		return r.runDAG(ctx, job, emit)
	case KindScan:
		return r.runScan(ctx, job, emit)
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownJobKind, job.Spec.Kind)
	}
}

// openJournal opens the job's workflow checkpoint journal behind a
// tee, cutting off a record a crash left torn, and returns the records
// a resumed attempt restores from (none on a first attempt).
func (r *LabRunner) openJournal(job Job, emit func(string, string)) (*journalTee, []workflow.TaskRecord, error) {
	var records []workflow.TaskRecord
	file, err := jsonl.Open(filepath.Join(r.Dir, job.ID+".journal"), jsonl.Collect(&records))
	if err != nil {
		return nil, nil, fmt.Errorf("open journal: %w", err)
	}
	if !job.Resumed && job.Attempts <= 1 {
		records = nil
	}
	return &journalTee{file: file, jobID: job.ID, emit: emit, onTask: r.OnTask, mirror: r.MirrorJournal}, records, nil
}

// journalTee forwards every checkpoint line to the underlying journal
// file and mirrors it into the job's event stream (and the OnTask
// crash seam), synchronously with the workflow engine.
type journalTee struct {
	file   *jsonl.Log
	jobID  string
	emit   func(string, string)
	onTask func(string, workflow.TaskRecord)
	mirror func(string, []byte) error
}

func (t *journalTee) Write(p []byte) (int, error) {
	n, err := t.file.Write(p)
	if err != nil {
		return n, err
	}
	if t.mirror != nil {
		if err := t.mirror(t.jobID, p); err != nil {
			return n, fmt.Errorf("mirror journal: %w", err)
		}
	}
	var rec workflow.TaskRecord
	if jsonErr := json.Unmarshal(p, &rec); jsonErr == nil && rec.TaskID != "" {
		if t.emit != nil {
			t.emit("workflow", fmt.Sprintf("task %s %s", rec.TaskID, rec.Status))
		}
		if t.onTask != nil {
			t.onTask(t.jobID, rec)
		}
	}
	return n, nil
}

// runCV executes the paper's tasks A–E for one tenant, resuming from
// the checkpoint journal when the job was cut down by a daemon crash.
func (r *LabRunner) runCV(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	_, connSpan := trace.Start(ctx, "sched.connect", trace.ClassControl)
	session, mount, err := r.Connector.ConnectSession()
	connSpan.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	defer session.Close()
	defer mount.Close()
	// RPCs issued outside any task/phase (the pre-execute reset) parent
	// under the attempt's run span.
	session.BindTraceContext(ctx)
	// Every RPC honours the job's deadline: a run context that expires
	// (end-to-end budget, quarantine cancel) aborts in-flight calls
	// instead of letting them block until the pyro timeout.
	session.BindCallContext(ctx)

	cfg := core.PaperCVWorkflowConfig()
	cfg.TraceLabel = job.ID
	if job.Spec.ScanRateMVs > 0 {
		cfg.CV.RateMVs = job.Spec.ScanRateMVs
	}
	if job.Spec.Points > 0 {
		cfg.CV.Points = job.Spec.Points
	}
	cfg.AcquireTimeout = r.phaseBudgets(ctx)
	cfg.StreamAnalysis = r.StreamAnalysis
	cfg.Classifier = r.Classifier

	gate := r.gate(ctx, job, emit)
	var unlockOnce sync.Once
	unlock := func() { unlockOnce.Do(gate.Unlock) }
	defer unlock()
	// Release the instruments the moment acquisition has landed on the
	// agent's disk — the WAN retrieval and analysis that follow do not
	// need the lab, so the next tenant's job takes the lease now.
	cfg.OnMeasured = func(fileName string) {
		emit("measured", fileName)
		unlock()
	}
	// Task E's instrument shutdown re-acquires the lease: a disconnect
	// must not fire inside another tenant's acquisition on the shared
	// instrument. The pre-lock release covers the resume path where
	// task D was restored from the journal and OnMeasured never fired.
	cfg.TeardownGate = &relockGate{pre: unlock, gate: gate}

	nb, outcome := core.BuildCVWorkflow(session, mount, cfg)

	// Crash recovery: restore completed tasks from the journal the
	// previous daemon incarnation checkpointed.
	tee, records, err := r.openJournal(job, emit)
	if err != nil {
		return nil, err
	}
	defer tee.file.Close()
	if n := nb.Restore(records); n > 0 {
		emit("resumed", fmt.Sprintf("%d completed task(s) restored from checkpoint journal", n))
	}
	nb.SetJournal(tee)

	gate.Lock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The shared potentiostat may be mid-pipeline — a previous tenant's
	// campaign, or this job's own crashed attempt. Force it back to its
	// power-on state under the gate, so task D's full bring-up starts
	// from a known baseline. (Resetting outside the gate would disconnect
	// the instrument under another tenant's acquisition.)
	if err := session.ResetSP200(); err != nil {
		return nil, fmt.Errorf("reset instrument: %w", err)
	}
	if err := nb.Execute(ctx); err != nil {
		return nil, err
	}
	result := CVResult{
		File:   outcome.FileName,
		SHA256: outcome.SHA256,
		Points: len(outcome.Records),
	}
	if outcome.Summary != nil {
		result.AnodicPeakUA = outcome.Summary.AnodicPeak.Microamperes()
	}
	if outcome.Classified {
		result.ClassName = outcome.ClassName
	}
	return json.Marshal(result)
}

// runDAG executes a declarative node-graph job through the DAG
// engine: the same connect / journal / instrument-gate scaffolding as
// runCV, with per-node checkpoints in the job's journal and the
// runner-wide content-keyed cache shared across jobs.
func (r *LabRunner) runDAG(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	spec, err := dag.DecodeSpec(job.Spec.DAG)
	if err != nil {
		return nil, err
	}
	_, connSpan := trace.Start(ctx, "sched.connect", trace.ClassControl)
	session, mount, err := r.Connector.ConnectSession()
	connSpan.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	defer session.Close()
	defer mount.Close()
	session.BindTraceContext(ctx)
	session.BindCallContext(ctx)

	// The cache lives beside the journals and is shared across jobs:
	// a second job submitting the same spec against unchanged content
	// hits on every cacheable node.
	cache, err := dag.OpenCache(filepath.Join(r.Dir, "dagcache"))
	if err != nil {
		return nil, err
	}
	cache.MaxBlobBytes = r.CacheMaxBytes
	cache.Metrics = r.Metrics

	// Crash recovery: replay the per-node checkpoints the previous
	// daemon incarnation journaled.
	tee, restored, err := r.openJournal(job, emit)
	if err != nil {
		return nil, err
	}
	defer tee.file.Close()

	gate := r.gate(ctx, job, emit)

	eng := &dag.Engine{
		Spec: spec,
		Exec: &dag.LabExecutor{
			Session:    session,
			Mount:      mount,
			Classifier: r.Classifier,
		},
		Journal:    tee,
		Cache:      cache,
		Gate:       gate,
		Metrics:    r.Metrics,
		TraceLabel: job.ID,
		Restored:   restored,
	}
	res, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	if res.NodesRestored > 0 {
		emit("resumed", fmt.Sprintf("%d completed node(s) restored from checkpoint journal", res.NodesRestored))
	}
	if res.NodesCached > 0 {
		emit("cached", fmt.Sprintf("%d node(s) served from content-keyed cache", res.NodesCached))
	}
	return json.Marshal(res)
}

// gate builds the job's lease-backed instrument gate. It contends on
// the scheduler's per-job assignment when present (health routing);
// else, for a scan job, on the scan lease, so a scan never queues
// behind a potentiostat it does not use; else on Resources.
func (r *LabRunner) gate(ctx context.Context, job Job, emit func(string, string)) *InstrumentGate {
	resources := job.Resources
	if len(resources) == 0 {
		resources = r.Resources
		if job.Spec.Kind == KindScan {
			resources = []string{ResourceScan}
		}
	}
	return &InstrumentGate{
		M:         r.Leases,
		Resources: resources,
		Holder:    job.ID,
		TraceCtx:  ctx,
		OnEvent:   func(msg string) { emit("lease", msg) },
	}
}

// phaseBudgets derives the acquire-phase sub-budget. An explicit
// AcquireBudget wins; otherwise, when the run context carries an
// end-to-end deadline, the acquire phase gets 60% of what remains —
// enough that a hang inside acquisition is detected and classified as
// a wedge well before the whole budget burns down.
func (r *LabRunner) phaseBudgets(ctx context.Context) time.Duration {
	if r.AcquireBudget > 0 {
		return r.AcquireBudget
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	remaining := time.Until(dl)
	if remaining <= 0 {
		return 0
	}
	return remaining * 6 / 10
}

// relockGate is the teardown locker: Lock releases any still-held
// leases (at most once, shared with the runner's deferred unlock) and
// then re-acquires the gate; Unlock releases it again.
type relockGate struct {
	pre  func()
	gate *InstrumentGate
}

func (r *relockGate) Lock() {
	r.pre()
	r.gate.Lock()
}

func (r *relockGate) Unlock() { r.gate.Unlock() }

// runCampaign executes one or more closed-loop campaigns as a fleet
// sharing the lease-backed instrument gate.
func (r *LabRunner) runCampaign(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	points := r.CampaignCVPoints
	if points <= 0 {
		points = 300
	}
	gate := r.gate(ctx, job, emit)
	fleet := &campaign.Fleet{Gate: gate}
	var cleanups []func()
	defer func() {
		for _, c := range cleanups {
			c()
		}
	}()
	if err := func() (err error) {
		_, connSpan := trace.Start(ctx, "sched.connect", trace.ClassControl)
		defer func() { connSpan.EndErr(err) }()
		for i, cell := range job.Spec.Cells {
			name := cell.Name
			if name == "" {
				name = fmt.Sprintf("cell-%02d", i+1)
			}
			session, mount, err := r.Connector.ConnectLab()
			if err != nil {
				return fmt.Errorf("connect cell %s: %w", name, err)
			}
			session.BindCallContext(ctx)
			cleanups = append(cleanups, func() { session.Close(); mount.Close() })
			cellName := name
			fleet.Cells = append(fleet.Cells, campaign.FleetCell{
				Name: name,
				Executor: &campaign.Executor{
					Session:  session,
					Mount:    mount,
					CVPoints: points,
					Observe: func(obs campaign.Observation) {
						emit("round", fmt.Sprintf("%s round %d: %.3f mM → %.2f µA",
							cellName, obs.Round, obs.Params.ConcentrationMM, obs.Peak.Microamperes()))
					},
				},
				Planner: plannerFor(cell),
			})
		}
		return nil
	}(); err != nil {
		return nil, err
	}

	results, err := fleet.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := CampaignResult{}
	var failures []error
	for _, res := range results {
		cr := CellResult{Name: res.Name}
		for _, obs := range res.History {
			cr.Rounds = append(cr.Rounds, RoundResult{
				Round:           obs.Round,
				ConcentrationMM: obs.Params.ConcentrationMM,
				AchievedMM:      obs.AchievedMM,
				ScanRateMVs:     obs.Params.ScanRateMVs,
				PeakUA:          obs.Peak.Microamperes(),
			})
		}
		if res.Err != nil {
			cr.Error = res.Err.Error()
			failures = append(failures, fmt.Errorf("cell %s: %w", res.Name, res.Err))
		}
		out.Cells = append(out.Cells, cr)
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	return json.Marshal(out)
}

// plannerFor builds the cell's planner from its declarative spec
// (Validate guarantees exactly one of the two shapes).
func plannerFor(cell CellSpec) campaign.Planner {
	if len(cell.Rounds) > 0 {
		rounds := make([]campaign.Params, len(cell.Rounds))
		for i, r := range cell.Rounds {
			rounds[i] = campaign.Params{ConcentrationMM: r.ConcentrationMM, ScanRateMVs: r.ScanRateMVs}
		}
		return campaign.FixedRounds{Label: cell.Name, Rounds: rounds}
	}
	return &campaign.TargetPeakSearch{
		TargetPeakUA: cell.TargetPeakUA,
		MinMM:        cell.MinMM,
		MaxMM:        cell.MaxMM,
	}
}
