package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/microscope"
	"ice/internal/trace"
)

// ScanConnector opens scan-instrument handles for one job. A facility
// whose config includes a scan-steering microscope (labreg's "scan"
// kind) implements it alongside Connector; the classic hardcoded
// deployment does not, so scan jobs against it fail terminally at
// dispatch.
type ScanConnector interface {
	// ConnectScan opens a session onto the scan station's daemon, the
	// station's data share, and the scan object's export name.
	ConnectScan() (*core.RemoteSession, datachan.Share, string, error)
}

// ErrNoScanInstrument marks a scan job submitted to a facility whose
// connector serves no scan instrument. Like ErrUnknownJobKind it is a
// workload fault: requeueing cannot make a microscope appear.
var ErrNoScanInstrument = errors.New("sched: facility has no scan instrument")

// ScanResult is a scan job's JSON result: the digest-verified scan
// file plus the steering story.
type ScanResult struct {
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
	Tiles  int    `json:"tiles"`
	Passes int    `json:"passes"`
	Steers int    `json:"steers"`
	// Zoomed reports whether the classifier steered the scan; when it
	// did, ZoomRegion is the window and BestScore the winning tile's
	// score.
	Zoomed     bool               `json:"zoomed"`
	ZoomRegion *microscope.Region `json:"zoom_region,omitempty"`
	BestScore  float64            `json:"best_score,omitempty"`
}

// runScan executes a scan job: survey pass → online tile
// classification → steer onto the best structure → zoom pass(es) →
// finish → retrieve the scan file over the data channel with digest
// verification. The instrument gate releases at Finish-complete (the
// scan file has landed on the agent's disk), so the WAN retrieval
// overlaps the next tenant's beam time — the same release point the
// cv path uses at OnMeasured.
func (r *LabRunner) runScan(ctx context.Context, job Job, emit func(string, string)) (json.RawMessage, error) {
	sc, ok := r.Connector.(ScanConnector)
	if !ok {
		return nil, fmt.Errorf("%w (kind %q)", ErrNoScanInstrument, job.Spec.Kind)
	}
	_, connSpan := trace.Start(ctx, "sched.connect", trace.ClassControl)
	session, mount, object, err := sc.ConnectScan()
	connSpan.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	defer session.Close()
	defer mount.Close()
	session.BindTraceContext(ctx)
	session.BindCallContext(ctx)

	caller, err := session.Object(object, microscope.NonIdempotentScanMethods...)
	if err != nil {
		return nil, fmt.Errorf("connect scan object: %w", err)
	}
	client := microscope.NewClient(caller)

	spec := job.Spec.Scan
	if spec == nil {
		spec = &ScanSpec{}
	}
	cfg := microscope.ScanConfig{
		TilesX:        spec.TilesX,
		TilesY:        spec.TilesY,
		PixelsPerTile: spec.PixelsPerTile,
		DwellUS:       spec.DwellUS,
	}
	maxSteers := spec.MaxSteers
	if maxSteers == 0 {
		maxSteers = 1
	}

	gate := r.gate(ctx, job, emit)
	var unlockOnce sync.Once
	unlock := func() { unlockOnce.Do(gate.Unlock) }
	defer unlock()

	gate.Lock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Setup: the column may be mid-pipeline from a crashed attempt;
	// Disconnect is valid from every state and forces power-on baseline.
	_, setupSpan := trace.Start(ctx, "scan.setup", trace.ClassControl)
	err = func() error {
		if _, err := client.Disconnect(ctx); err != nil {
			return fmt.Errorf("reset instrument: %w", err)
		}
		if _, err := client.Initialize(ctx); err != nil {
			return fmt.Errorf("initialize: %w", err)
		}
		if _, err := client.Configure(ctx, cfg); err != nil {
			return fmt.Errorf("configure: %w", err)
		}
		return nil
	}()
	setupSpan.EndErr(err)
	if err != nil {
		return nil, err
	}

	// Survey: start the raster and observe streamed tiles online, so
	// the steering decision is ready the instant the pass completes.
	normalized, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	passTiles := normalized.TilesX * normalized.TilesY
	steering := &microscope.OnlineSteering{MinScore: spec.MinScore, ZoomFactor: spec.ZoomFactor}

	surveyCtx, surveySpan := trace.Start(ctx, "scan.survey", trace.ClassInstrument)
	err = func() error {
		if _, err := client.Start(surveyCtx); err != nil {
			return fmt.Errorf("start scan: %w", err)
		}
		return observeTiles(surveyCtx, client, steering, passTiles)
	}()
	surveySpan.EndErr(err)
	if err != nil {
		return nil, err
	}

	// Steering: zoom onto the best structure, re-running the decision
	// against each zoom pass for deeper magnification.
	result := ScanResult{}
	region := microscope.FullField
	if cfg.Region != (microscope.Region{}) {
		region = cfg.Region
	}
	for steerN := 0; steerN < maxSteers; steerN++ {
		dec := steering.Decide(region)
		if !dec.Zoom {
			break
		}
		steerCtx, steerSpan := trace.Start(ctx, "scan.zoom", trace.ClassInstrument)
		err = func() error {
			if _, err := client.Steer(steerCtx, dec.Region); err != nil {
				return fmt.Errorf("steer: %w", err)
			}
			emit("steered", fmt.Sprintf("zoom %d onto %.3f,%.3f+%.3fx%.3f (score %.3f)",
				steerN+1, dec.Region.X, dec.Region.Y, dec.Region.W, dec.Region.H, dec.BestScore))
			return observeTiles(steerCtx, client, steering, (steerN+2)*passTiles)
		}()
		steerSpan.EndErr(err)
		if err != nil {
			return nil, err
		}
		result.Zoomed = true
		zr := dec.Region
		result.ZoomRegion = &zr
		result.BestScore = dec.BestScore
		region = dec.Region
	}

	// Finish: close the held acquisition and wait for the scan file to
	// complete on the agent's disk — the instrument-release point.
	_, finishSpan := trace.Start(ctx, "scan.finish", trace.ClassInstrument)
	var scanRes microscope.Result
	err = func() error {
		if _, err := client.Finish(ctx); err != nil {
			return fmt.Errorf("finish: %w", err)
		}
		res, err := client.Wait(ctx)
		if err != nil {
			return fmt.Errorf("wait: %w", err)
		}
		scanRes = res
		return nil
	}()
	finishSpan.EndErr(err)
	if err != nil {
		return nil, err
	}
	emit("measured", scanRes.File)
	unlock()

	// Retrieval over the WAN, digest-verified end to end; the beam is
	// already someone else's.
	retrCtx, retrSpan := trace.Start(ctx, "scan.retrieve", trace.ClassData)
	data, err := r.retrieveVerified(retrCtx, mount, scanRes.File)
	retrSpan.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("retrieve %s: %w", scanRes.File, err)
	}

	sum := sha256.Sum256(data)
	result.File = scanRes.File
	result.SHA256 = hex.EncodeToString(sum[:])
	result.Tiles = scanRes.Tiles
	result.Passes = scanRes.Passes
	result.Steers = scanRes.Steers
	return json.Marshal(result)
}

// observeTiles polls the streamed tiles into the steering classifier,
// every tilePoll, until the scan has produced want tiles (the current
// pass is done) or tileTimeout has passed.
func observeTiles(ctx context.Context, client *microscope.Client, steering *microscope.OnlineSteering, want int) error {
	const (
		tilePoll    = 20 * time.Millisecond
		tileTimeout = 2 * time.Minute
	)
	deadline := time.Now().Add(tileTimeout)
	for {
		tiles, err := client.Tiles(ctx, steering.Seen())
		if err != nil {
			return fmt.Errorf("get tiles: %w", err)
		}
		for _, t := range tiles {
			steering.Observe(t)
		}
		if steering.Seen() >= want {
			return nil
		}
		if time.Now().After(deadline) {
			// The "exceeded its" phrasing is the wedge marker the health
			// classifier keys on; naming stem attributes the blame.
			return fmt.Errorf("stem scan phase exceeded its %v budget (%d/%d tiles)", tileTimeout, steering.Seen(), want)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(tilePoll):
		}
	}
}

// retrieveVerified fetches the scan file over the data channel with
// the share's digest verification when available.
func (r *LabRunner) retrieveVerified(ctx context.Context, mount datachan.Share, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return mount.ReadAllVerified(name)
}
