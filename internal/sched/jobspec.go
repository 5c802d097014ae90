package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"ice/internal/dag"
)

// MaxJobSpecBytes bounds the JSON a tenant may submit; the gateway
// enforces it before decoding so a hostile body cannot balloon memory.
const MaxJobSpecBytes = 64 * 1024

// Job spec shape limits: declarative requests are small by
// construction, so anything outside these bounds is rejected at
// admission rather than discovered mid-experiment.
const (
	maxTenantLen = 64
	maxLabelLen  = 64
	maxCells     = 16
	maxRounds    = 64
	maxCVPoints  = 100_000
	maxPriority  = 9
)

// RoundSpec is one declarative campaign round.
type RoundSpec struct {
	// ConcentrationMM to synthesise before measuring; 0 reuses the cell
	// contents.
	ConcentrationMM float64 `json:"concentration_mm,omitempty"`
	// ScanRateMVs is the CV scan rate (0 = the paper's default).
	ScanRateMVs float64 `json:"scan_rate_mvs,omitempty"`
}

// CellSpec is one campaign within a job: either a fixed list of rounds
// or a target-peak search (exactly one of the two).
type CellSpec struct {
	// Name labels the cell in results and events (optional).
	Name string `json:"name,omitempty"`
	// Rounds, when set, replays these rounds in order.
	Rounds []RoundSpec `json:"rounds,omitempty"`
	// TargetPeakUA, when > 0, runs the bisection search for the
	// concentration hitting this anodic peak.
	TargetPeakUA float64 `json:"target_peak_ua,omitempty"`
	// MinMM and MaxMM bound the search (required with TargetPeakUA).
	MinMM float64 `json:"min_mm,omitempty"`
	MaxMM float64 `json:"max_mm,omitempty"`
}

// ScanSpec parameterises a scan job: the survey raster and the online
// steering policy the runner applies to the streamed tiles.
type ScanSpec struct {
	// TilesX and TilesY set the survey raster grid (0 = instrument
	// default 8×8; max 64 per axis).
	TilesX int `json:"tiles_x,omitempty"`
	TilesY int `json:"tiles_y,omitempty"`
	// PixelsPerTile sets per-tile resolution (0 = default 16; max 256).
	PixelsPerTile int `json:"pixels_per_tile,omitempty"`
	// DwellUS is the per-pixel dwell in microseconds (0 = default).
	DwellUS float64 `json:"dwell_us,omitempty"`
	// MinScore is the steering threshold: a survey whose best tile
	// scores below it finishes without zooming (0 = always zoom on the
	// best tile).
	MinScore float64 `json:"min_score,omitempty"`
	// ZoomFactor shrinks the window per steer (0 = default 4).
	ZoomFactor float64 `json:"zoom_factor,omitempty"`
	// MaxSteers bounds how many zoom passes follow the survey
	// (default 1, max 8; the runner steers at most this many times).
	MaxSteers int `json:"max_steers,omitempty"`
}

func (s *ScanSpec) validate() error {
	if s.TilesX < 0 || s.TilesX > 64 || s.TilesY < 0 || s.TilesY > 64 {
		return fmt.Errorf("sched: scan tile grid %dx%d outside 0..64", s.TilesX, s.TilesY)
	}
	if s.PixelsPerTile < 0 || s.PixelsPerTile > 256 {
		return fmt.Errorf("sched: scan pixels_per_tile %d outside 0..256", s.PixelsPerTile)
	}
	if !finiteIn(s.DwellUS, 0, 1e6) {
		return fmt.Errorf("sched: scan dwell_us %v outside 0..1e6", s.DwellUS)
	}
	if !finiteIn(s.MinScore, 0, 1e6) {
		return fmt.Errorf("sched: scan min_score %v outside 0..1e6", s.MinScore)
	}
	if !finiteIn(s.ZoomFactor, 0, 64) {
		return fmt.Errorf("sched: scan zoom_factor %v outside 0..64", s.ZoomFactor)
	}
	if s.MaxSteers < 0 || s.MaxSteers > 8 {
		return fmt.Errorf("sched: scan max_steers %d outside 0..8", s.MaxSteers)
	}
	return nil
}

// JobSpec is the declarative experiment request a tenant submits to
// the gateway.
type JobSpec struct {
	// Tenant identifies the submitting tenant (required).
	Tenant string `json:"tenant"`
	// Kind selects the workload: "cv" (the paper's tasks A–E), or
	// "campaign" (closed-loop rounds over the lab stations; one cell
	// runs alone, several cells run as a fleet sharing the instrument).
	Kind string `json:"kind"`
	// Priority orders a tenant's own jobs (0–9, higher first). It does
	// not jump the fair-share ordering across tenants.
	Priority int `json:"priority,omitempty"`
	// Facility targets the experiment at a specific facility's
	// instruments in a federated cluster. Empty means the facility of
	// the gateway the job was submitted to; a foreign facility makes
	// the receiving gateway forward the job to that facility's leader
	// and proxy status/SSE back to the submitter.
	Facility string `json:"facility,omitempty"`
	// DeadlineMS bounds the job's end-to-end wall time in milliseconds,
	// measured from admission (queue wait included). The scheduler
	// derives a context deadline that flows gateway → runner → pyro
	// calls, with per-phase sub-budgets, so a hung instrument surfaces
	// in seconds instead of riding out the lease TTL. 0 means no
	// deadline. A deadline below the scheduler's configured minimum is
	// rejected at admission with 503 + Retry-After rather than
	// admitted to certainly fail.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ScanRateMVs and Points parameterise a cv job.
	ScanRateMVs float64 `json:"scan_rate_mvs,omitempty"`
	Points      int     `json:"points,omitempty"`
	// Cells parameterise a campaign job (1..16 cells).
	Cells []CellSpec `json:"cells,omitempty"`
	// DAG carries the declarative node-graph document for a dag job.
	// It is validated (schema, references, cycles) at admission with
	// dag.DecodeSpec, so the queue never holds a malformed graph.
	DAG json.RawMessage `json:"dag,omitempty"`
	// Scan parameterises a scan job (survey → steer → zoom on a
	// scan-steering microscope); nil uses instrument defaults.
	Scan *ScanSpec `json:"scan,omitempty"`
}

// Job kinds.
const (
	KindCV       = "cv"
	KindCampaign = "campaign"
	KindDAG      = "dag"
	KindScan     = "scan"
)

// DecodeJobSpec parses and validates a tenant-submitted job spec. It
// is strict — unknown fields, trailing garbage, oversized bodies, and
// out-of-range values are all errors — and never panics on malformed
// input (FuzzDecodeJobSpec holds it to that).
func DecodeJobSpec(data []byte) (JobSpec, error) {
	spec, err := parseJobSpec(data)
	if err != nil {
		return JobSpec{}, err
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// parseJobSpec is DecodeJobSpec's strict parse without the validation:
// the gateway's submit handler uses it because Scheduler.Submit
// validates whatever it is handed, and validating a dag job means
// decoding and sorting its graph.
func parseJobSpec(data []byte) (JobSpec, error) {
	var spec JobSpec
	if len(data) > MaxJobSpecBytes {
		return spec, fmt.Errorf("sched: job spec exceeds %d bytes", MaxJobSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("sched: decode job spec: %w", err)
	}
	// A second document after the first is garbage, not a request.
	if dec.More() {
		return JobSpec{}, fmt.Errorf("sched: trailing data after job spec")
	}
	return spec, nil
}

// Validate checks the spec's shape and ranges.
func (s *JobSpec) Validate() error {
	if err := validateName("tenant", s.Tenant, maxTenantLen, true); err != nil {
		return err
	}
	if s.Priority < 0 || s.Priority > maxPriority {
		return fmt.Errorf("sched: priority %d outside 0..%d", s.Priority, maxPriority)
	}
	if err := validateName("facility", s.Facility, maxLabelLen, false); err != nil {
		return err
	}
	// One day bounds any legitimate experiment; negative is nonsense.
	if s.DeadlineMS < 0 || s.DeadlineMS > 86_400_000 {
		return fmt.Errorf("sched: deadline_ms %d outside 0..86400000", s.DeadlineMS)
	}
	switch s.Kind {
	case KindCV:
		if len(s.Cells) != 0 {
			return fmt.Errorf("sched: cv job does not take cells")
		}
		if len(s.DAG) != 0 {
			return fmt.Errorf("sched: cv job does not take a dag")
		}
		if s.Scan != nil {
			return fmt.Errorf("sched: cv job does not take a scan")
		}
		if !finiteIn(s.ScanRateMVs, 0, 10_000) {
			return fmt.Errorf("sched: scan rate %v mV/s outside 0..10000", s.ScanRateMVs)
		}
		if s.Points < 0 || s.Points > maxCVPoints {
			return fmt.Errorf("sched: points %d outside 0..%d", s.Points, maxCVPoints)
		}
	case KindCampaign:
		if s.ScanRateMVs != 0 || s.Points != 0 {
			return fmt.Errorf("sched: campaign job takes per-round scan rates, not top-level cv fields")
		}
		if len(s.DAG) != 0 {
			return fmt.Errorf("sched: campaign job does not take a dag")
		}
		if s.Scan != nil {
			return fmt.Errorf("sched: campaign job does not take a scan")
		}
		if len(s.Cells) == 0 || len(s.Cells) > maxCells {
			return fmt.Errorf("sched: campaign needs 1..%d cells, got %d", maxCells, len(s.Cells))
		}
		for i := range s.Cells {
			if err := s.Cells[i].validate(); err != nil {
				return fmt.Errorf("sched: cell %d: %w", i+1, err)
			}
		}
	case KindDAG:
		if len(s.Cells) != 0 || s.ScanRateMVs != 0 || s.Points != 0 || s.Scan != nil {
			return fmt.Errorf("sched: dag job takes only a dag document, not cv, campaign or scan fields")
		}
		if len(s.DAG) == 0 {
			return fmt.Errorf("sched: dag job needs a dag document")
		}
		if _, err := dag.DecodeSpec(s.DAG); err != nil {
			return err
		}
	case KindScan:
		if len(s.Cells) != 0 || len(s.DAG) != 0 || s.ScanRateMVs != 0 || s.Points != 0 {
			return fmt.Errorf("sched: scan job takes only a scan spec, not cv, campaign or dag fields")
		}
		if s.Scan != nil {
			if err := s.Scan.validate(); err != nil {
				return err
			}
		}
	case "":
		return fmt.Errorf("sched: job spec needs a kind")
	default:
		return fmt.Errorf("sched: unknown job kind %q", s.Kind)
	}
	return nil
}

func (c *CellSpec) validate() error {
	if err := validateName("cell name", c.Name, maxLabelLen, false); err != nil {
		return err
	}
	hasRounds := len(c.Rounds) > 0
	hasSearch := c.TargetPeakUA != 0 || c.MinMM != 0 || c.MaxMM != 0
	switch {
	case hasRounds && hasSearch:
		return fmt.Errorf("needs rounds or a target-peak search, not both")
	case hasRounds:
		if len(c.Rounds) > maxRounds {
			return fmt.Errorf("more than %d rounds", maxRounds)
		}
		for j, r := range c.Rounds {
			if !finiteIn(r.ConcentrationMM, 0, 1000) {
				return fmt.Errorf("round %d: concentration %v mM outside 0..1000", j+1, r.ConcentrationMM)
			}
			if !finiteIn(r.ScanRateMVs, 0, 10_000) {
				return fmt.Errorf("round %d: scan rate %v mV/s outside 0..10000", j+1, r.ScanRateMVs)
			}
		}
	case hasSearch:
		if !finiteIn(c.TargetPeakUA, 0, 1e6) || c.TargetPeakUA <= 0 {
			return fmt.Errorf("target peak %v µA outside (0, 1e6]", c.TargetPeakUA)
		}
		if !finiteIn(c.MinMM, 0, 1000) || !finiteIn(c.MaxMM, 0, 1000) ||
			c.MinMM <= 0 || c.MaxMM <= c.MinMM {
			return fmt.Errorf("search bounds [%v, %v] mM invalid", c.MinMM, c.MaxMM)
		}
	default:
		return fmt.Errorf("needs rounds or a target-peak search")
	}
	return nil
}

// validateName bounds a label's length and restricts it to printable
// ASCII without whitespace, so identifiers are safe in logs, file
// names and SSE frames.
func validateName(what, s string, maxLen int, required bool) error {
	if s == "" {
		if required {
			return fmt.Errorf("sched: %s required", what)
		}
		return nil
	}
	if len(s) > maxLen {
		return fmt.Errorf("sched: %s longer than %d bytes", what, maxLen)
	}
	for _, r := range s {
		if r <= ' ' || r > '~' || r == '/' || r == '\\' || r == '"' {
			return fmt.Errorf("sched: %s contains disallowed character %q", what, r)
		}
	}
	return nil
}

// finiteIn reports whether v is a finite number inside [lo, hi].
func finiteIn(v, lo, hi float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= lo && v <= hi
}
