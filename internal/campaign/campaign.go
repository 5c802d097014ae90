// Package campaign provides closed-loop, multi-round experiment
// orchestration over the ICE — the "sophisticated AI-driven and
// real-time electrochemistry workflows" the paper lists as future
// work. A Planner inspects the history of observations and proposes
// the next round's parameters; the Executor realises each round
// physically (synthesis, robot transfer, remote CV, data-channel
// retrieval, analysis) and feeds the result back, until the planner
// declares convergence.
package campaign

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ice/internal/analysis"
	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/potentiostat"
	"ice/internal/telemetry"
	"ice/internal/trace"
	"ice/internal/units"
)

// Params are the tunable knobs of one round.
type Params struct {
	// ConcentrationMM is the analyte concentration to synthesise; 0
	// reuses the current cell contents.
	ConcentrationMM float64
	// ScanRateMVs is the CV scan rate.
	ScanRateMVs float64
}

// Observation is one completed round.
type Observation struct {
	// Round index, starting at 1.
	Round int
	// Params the round ran with.
	Params Params
	// AchievedMM is the synthesised concentration actually delivered.
	AchievedMM float64
	// Peak is the measured anodic peak current.
	Peak units.Current
	// Summary is the full remote analysis.
	Summary *analysis.CVSummary
	// Classified, Class and ClassName carry the normality verdict when
	// the executor has a Classifier.
	Classified bool
	Class      int
	ClassName  string
}

// Planner proposes round parameters from history.
type Planner interface {
	// Name labels the strategy.
	Name() string
	// Next returns the next round's parameters, or done=true when the
	// campaign has converged.
	Next(history []Observation) (p Params, done bool, err error)
}

// Executor realises rounds on a deployed ICE. It needs only the
// remote handles — every action, including draining the cell between
// rounds, goes through the control channel, so an executor can run
// from any machine that can reach the control agent.
type Executor struct {
	// Session and Mount are open cross-facility handles. Mount may be a
	// plain or reliable mount (any datachan.Share).
	Session *core.LabSession
	Mount   datachan.Share
	// MaxRounds bounds runaway planners (default 20).
	MaxRounds int
	// CVPoints per acquisition (default 600).
	CVPoints int
	// VolumeML synthesised per round (default 8).
	VolumeML float64
	// InstrumentGate, when set, serialises the physical phase of a
	// round (cell prep, instrument bring-up, acquisition) against other
	// executors driving the same lab. The gate is released as soon as
	// the measurement file is complete on the agent's disk, so one
	// campaign's WAN retrieval and analysis overlap the next campaign's
	// instrument time — the concurrency a fleet exploits.
	InstrumentGate sync.Locker
	// PlannerLock, when set, guards planner calls; required when one
	// stateful planner instance steers several concurrent campaigns.
	PlannerLock sync.Locker
	// Observe, when set, is called after every completed round (fleets
	// use it to maintain a shared cross-cell history).
	Observe func(Observation)
	// Label names this executor in trace phase spans (a fleet sets the
	// cell name); the critical-path analyzer uses it to attribute one
	// cell's data phase overlapping another's instrument phase.
	Label string
	// Metrics, when set, counts operational anomalies — currently
	// campaign.stranded_resets, incremented when bringUp finds the
	// shared potentiostat stranded mid-pipeline by another tenant and
	// has to force it back to power-on state.
	Metrics *telemetry.Collector
	// Classifier, when set, runs the normality ensemble over each
	// round's records and records the verdict in its Observation. A
	// round whose curve cannot be classified is still a round: the
	// verdict is left unset.
	Classifier *ml.Ensemble
}

// Run executes the campaign and returns the observation history. The
// potentiostat is brought up lazily on the first round and left
// connected between rounds.
func (e *Executor) Run(p Planner) ([]Observation, error) {
	return e.RunContext(context.Background(), p)
}

// RunContext is Run bounded by a context: cancellation stops the
// campaign at the next phase boundary, returning the rounds completed
// so far alongside the context's error.
func (e *Executor) RunContext(ctx context.Context, p Planner) ([]Observation, error) {
	if e.Session == nil || e.Mount == nil {
		return nil, fmt.Errorf("campaign: executor needs session and mount")
	}
	maxRounds := e.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 20
	}
	points := e.CVPoints
	if points <= 0 {
		points = 600
	}
	volume := e.VolumeML
	if volume <= 0 {
		volume = 8
	}

	var history []Observation
	for round := 1; round <= maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return history, fmt.Errorf("campaign: %w", err)
		}
		params, done, err := e.plan(p, history)
		if err != nil {
			return history, fmt.Errorf("campaign: planner %s: %w", p.Name(), err)
		}
		if done {
			return history, nil
		}
		obs, err := e.runRound(ctx, round, params, points, volume)
		if err != nil {
			return history, fmt.Errorf("campaign: round %d: %w", round, err)
		}
		history = append(history, *obs)
		if e.Observe != nil {
			e.Observe(*obs)
		}
	}
	return history, fmt.Errorf("campaign: planner %s did not converge in %d rounds", p.Name(), maxRounds)
}

// plan consults the planner, under the planner lock when one is set.
func (e *Executor) plan(p Planner, history []Observation) (Params, bool, error) {
	if e.PlannerLock != nil {
		e.PlannerLock.Lock()
		defer e.PlannerLock.Unlock()
	}
	return p.Next(history)
}

// phase opens a classed sub-span stamped with this executor's holder
// label for the critical-path analyzer.
func (e *Executor) phase(ctx context.Context, name, class string) (context.Context, *trace.Span) {
	ctx, span := trace.Start(ctx, name, class)
	if e.Label != "" {
		span.SetAttr("holder", e.Label)
	}
	return ctx, span
}

func (e *Executor) runRound(ctx context.Context, round int, params Params, points int, volumeML float64) (o *Observation, err error) {
	ctx, span := trace.Start(ctx, fmt.Sprintf("campaign.round %d", round), "")
	if e.Label != "" {
		span.SetAttr("cell", e.Label)
	}
	defer func() { span.EndErr(err) }()
	obs := &Observation{Round: round, Params: params}
	name, err := e.acquireRound(ctx, obs, params, points, volumeML)
	if err != nil {
		return nil, err
	}
	if err := e.retrieveRound(ctx, obs, name); err != nil {
		return nil, err
	}
	return obs, nil
}

// acquireRound is the physical phase of a round — everything that
// needs exclusive use of the cell and instrument. It returns the name
// of the completed measurement file. GetTechPathRslt blocks until
// acquisition has finished streaming to the agent's disk, so when this
// returns the lab is free for the next campaign even though this
// round's data has not yet crossed the WAN.
func (e *Executor) acquireRound(ctx context.Context, obs *Observation, params Params, points int, volumeML float64) (name string, err error) {
	if e.InstrumentGate != nil {
		e.InstrumentGate.Lock()
		defer e.InstrumentGate.Unlock()
	}
	// The instrument-hold span starts only after the gate is won:
	// waiting for another cell's acquisition is queueing, not
	// instrument time, and counting it would fake overlap.
	acqCtx, span := e.phase(ctx, "campaign.acquire", trace.ClassInstrument)
	defer func() { span.EndErr(err) }()
	e.Session.BindTraceContext(acqCtx)
	defer e.Session.BindTraceContext(ctx)
	// The gate wait can be long in a busy fleet; honor cancellation
	// before touching the cell.
	if err := ctx.Err(); err != nil {
		return "", err
	}

	if params.ConcentrationMM > 0 {
		if _, err := e.Session.DrainCell(); err != nil {
			return "", fmt.Errorf("drain: %w", err)
		}
		batch, err := e.Session.SynthesizeFerrocene(params.ConcentrationMM, volumeML)
		if err != nil {
			return "", fmt.Errorf("synthesis: %w", err)
		}
		if _, err := e.Session.TransferBatchToCell(batch.ID); err != nil {
			return "", fmt.Errorf("transfer: %w", err)
		}
		obs.AchievedMM = batch.AchievedMM
	}

	// Readiness is re-checked under the gate every round, not cached:
	// between our rounds another tenant sharing the instrument may have
	// torn it down (a cv workflow's shutdown task) or crashed partway
	// through the pipeline.
	if err := e.bringUp(acqCtx); err != nil {
		return "", err
	}

	cv := core.PaperCVParams()
	if params.ScanRateMVs > 0 {
		cv.RateMVs = params.ScanRateMVs
	}
	cv.Points = points
	if err := core.StartCV(e.Session.RemoteSession, cv, nil); err != nil {
		return "", err
	}
	return e.Session.CallGetTechPathRslt()
}

// bringUp walks the SP200 through Initialize→Connect→LoadFirmware. In
// a fleet, another campaign may already have brought the shared
// instrument up — Initialize from any state but off fails with
// ErrBadState — so a firmware-loaded instrument is taken as ready
// rather than an error. A device stranded elsewhere in the pipeline
// (a tenant crashed mid-acquisition) is reset before initialising.
func (e *Executor) bringUp(ctx context.Context) error {
	if status, err := e.Session.SP200Status(); err == nil {
		if strings.Contains(status, potentiostat.StateFirmwareLoaded.String()) {
			return nil
		}
		if !strings.Contains(status, "["+potentiostat.StateOff.String()+" ") {
			// A stranded reset is evidence of a crashed or cut-down
			// neighbour — worth a trace event and a counter, not silence:
			// a climbing campaign.stranded_resets is how an operator
			// notices tenants crashing mid-acquisition.
			trace.SpanFromContext(ctx).Event("campaign.stranded_reset",
				"status", status, "cell", e.Label)
			if e.Metrics != nil {
				e.Metrics.Counter("campaign.stranded_resets").Inc()
			}
			if err := e.Session.ResetSP200(); err != nil {
				return err
			}
		}
	}
	return core.PowerUpSP200(e.Session.RemoteSession, core.PaperSystemParams(), nil)
}

// retrieveRound is the data phase of a round: pull the measurement
// file across the WAN, digest-verified, and analyze it. It runs outside
// the instrument gate.
func (e *Executor) retrieveRound(ctx context.Context, obs *Observation, name string) error {
	data, err := func() (data []byte, err error) {
		retrCtx, span := e.phase(ctx, "campaign.retrieve", trace.ClassData)
		span.SetAttr("file", name)
		defer func() { span.EndErr(err) }()
		if binder, ok := e.Mount.(interface{ SetSpan(*trace.Span) }); ok {
			binder.SetSpan(span)
			defer binder.SetSpan(nil)
		}
		// A campaign polls the share every 10 ms; the wait keeps the
		// default 2 min bound.
		data, _, _, err = core.RetrieveVerified(retrCtx, e.Mount, name, 10*time.Millisecond, 0)
		return data, err
	}()
	if err != nil {
		return err
	}
	return e.analyzeRound(ctx, obs, data)
}

// analyzeRound parses and analyzes a round's verified bytes, filling
// in the observation's summary and, with a Classifier, its verdict.
func (e *Executor) analyzeRound(ctx context.Context, obs *Observation, data []byte) (err error) {
	_, span := e.phase(ctx, "campaign.analyze", trace.ClassAnalysis)
	defer func() { span.EndErr(err) }()
	records, summary, err := core.AnalyzeCV(data)
	if err != nil {
		return err
	}
	if e.Classifier != nil {
		if class, err := core.ClassifyCV(e.Classifier, records); err == nil {
			obs.Classified = true
			obs.Class = class
			obs.ClassName = ml.ClassName(class)
		}
	}
	obs.Peak = summary.AnodicPeak
	obs.Summary = summary
	return nil
}
