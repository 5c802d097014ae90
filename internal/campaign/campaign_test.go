package campaign

import (
	"math"
	"testing"

	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/netsim"
	"ice/internal/telemetry"
	"ice/internal/units"
)

// deployExecutor stands up a full ICE with lab stations and returns a
// ready executor.
func deployExecutor(t *testing.T) *Executor {
	t.Helper()
	d, err := core.Deploy(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.AttachLab(7, 0); err != nil {
		t.Fatal(err)
	}
	session, mount, err := d.ConnectLabFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { session.Close(); mount.Close() })
	return &Executor{Session: session, Mount: mount, CVPoints: 400}
}

func TestScanRateLadderCampaign(t *testing.T) {
	e := deployExecutor(t)
	history, err := e.Run(ScanRateLadder{
		RatesMVs:        []float64{50, 200},
		ConcentrationMM: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("rounds = %d", len(history))
	}
	// ip ∝ √v: quadrupling the rate doubles the peak.
	ratio := history[1].Peak.Amperes() / history[0].Peak.Amperes()
	if math.Abs(ratio-2) > 0.15 {
		t.Errorf("peak ratio = %v, want ≈ 2", ratio)
	}
	// Only the first round synthesised.
	if history[0].AchievedMM == 0 || history[1].AchievedMM != 0 {
		t.Errorf("synthesis pattern wrong: %v, %v", history[0].AchievedMM, history[1].AchievedMM)
	}
	if history[0].Summary == nil || !history[0].Summary.Reversible {
		t.Error("round 1 analysis missing or irreversible")
	}
}

func TestTargetPeakSearchConverges(t *testing.T) {
	e := deployExecutor(t)
	// 2 mM gives ≈ 40 µA, so 30 µA lives near 1.5 mM.
	planner := &TargetPeakSearch{
		TargetPeakUA:      30,
		MinMM:             0.25,
		MaxMM:             4,
		ToleranceFraction: 0.06,
	}
	history, err := e.Run(planner)
	if err != nil {
		t.Fatalf("search failed after %d rounds: %v", len(history), err)
	}
	if len(history) == 0 {
		t.Fatal("no rounds executed")
	}
	last := history[len(history)-1]
	rel := math.Abs(last.Peak.Microamperes()-30) / 30
	if rel > 0.06 {
		t.Errorf("final peak %v µA, want within 6%% of 30", last.Peak.Microamperes())
	}
	// Bisection should need only a handful of rounds.
	if len(history) > 8 {
		t.Errorf("took %d rounds; bisection should converge faster", len(history))
	}
	t.Logf("converged in %d rounds at %.3g mM → %v",
		len(history), last.Params.ConcentrationMM, last.Peak)
}

func TestPlannersValidate(t *testing.T) {
	if _, _, err := (ScanRateLadder{}).Next(nil); err == nil {
		t.Error("empty ladder accepted")
	}
	bad := &TargetPeakSearch{TargetPeakUA: 0, MinMM: 1, MaxMM: 2}
	if _, _, err := bad.Next(nil); err == nil {
		t.Error("zero target accepted")
	}
	bad = &TargetPeakSearch{TargetPeakUA: 10, MinMM: 2, MaxMM: 1}
	if _, _, err := bad.Next(nil); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestExecutorValidation(t *testing.T) {
	e := &Executor{}
	if _, err := e.Run(ScanRateLadder{RatesMVs: []float64{50}}); err == nil {
		t.Error("empty executor accepted")
	}
}

func TestLadderDoneImmediatelyOnFullHistory(t *testing.T) {
	l := ScanRateLadder{RatesMVs: []float64{50}}
	_, done, err := l.Next(make([]Observation, 1))
	if err != nil || !done {
		t.Errorf("Next on full history = done=%v err=%v", done, err)
	}
}

func TestSearchUnreachableTargetErrors(t *testing.T) {
	e := deployExecutor(t)
	// 500 µA is beyond the 0.25–4 mM window (max ≈ 80 µA): the search
	// interval collapses and errors rather than looping forever.
	planner := &TargetPeakSearch{TargetPeakUA: 500, MinMM: 0.25, MaxMM: 4}
	if _, err := e.Run(planner); err == nil {
		t.Error("unreachable target converged")
	}
}

// Ensure the campaign respects the instrument's measurement chain —
// the observed peaks really came through the data channel.
func TestObservationsCarryFullAnalysis(t *testing.T) {
	e := deployExecutor(t)
	history, err := e.Run(ScanRateLadder{RatesMVs: []float64{50}, ConcentrationMM: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := history[0].Summary
	if s == nil {
		t.Fatal("no summary")
	}
	if math.Abs(s.HalfWave.Volts()-0.40) > 0.02 {
		t.Errorf("E½ = %v", s.HalfWave)
	}
	want := units.Microamperes(40)
	if math.Abs(s.AnodicPeak.Microamperes()-want.Microamperes()) > 6 {
		t.Errorf("peak = %v, want ≈ 40 µA at 2 mM", s.AnodicPeak)
	}
	_ = datachan.Created // the mount path is exercised above
}

// A neighbour tenant crashed mid-pipeline and left the shared SP200
// connected but not firmware-loaded: the campaign must reset the
// stranded instrument, count the anomaly, and still complete.
func TestStrandedInstrumentResetCounted(t *testing.T) {
	e := deployExecutor(t)
	e.Metrics = telemetry.NewCollector()
	// Strand the device: bring it partway up outside the campaign.
	if _, err := e.Session.CallInitializeSP200API(core.PaperSystemParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Session.CallConnectSP200(); err != nil {
		t.Fatal(err)
	}
	history, err := e.Run(ScanRateLadder{RatesMVs: []float64{50}, ConcentrationMM: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 1 {
		t.Fatalf("rounds = %d, want 1", len(history))
	}
	if got := e.Metrics.CounterValue("campaign.stranded_resets"); got != 1 {
		t.Errorf("campaign.stranded_resets = %d, want 1", got)
	}
}

// A healthy bring-up must not inflate the anomaly counter.
func TestHealthyBringUpCountsNoStrandedResets(t *testing.T) {
	e := deployExecutor(t)
	e.Metrics = telemetry.NewCollector()
	if _, err := e.Run(ScanRateLadder{RatesMVs: []float64{50}, ConcentrationMM: 2}); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics.CounterValue("campaign.stranded_resets"); got != 0 {
		t.Errorf("campaign.stranded_resets = %d, want 0", got)
	}
}

// TestCampaignClassifiedRounds runs a two-round ladder with a
// classifier: every round must carry a normality verdict next to its
// analysis.
func TestCampaignClassifiedRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a classifier")
	}
	clf, acc, err := ml.TrainNormalityClassifier(ml.GenerateConfig{PerClass: 8, Samples: 250, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("classifier accuracy %v too low to test with", acc)
	}

	e := deployExecutor(t)
	e.Classifier = clf
	history, err := e.Run(ScanRateLadder{
		RatesMVs:        []float64{50, 200},
		ConcentrationMM: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("rounds = %d", len(history))
	}
	for _, obs := range history {
		if !obs.Classified || obs.Class != ml.ClassNormal {
			t.Errorf("round %d verdict = %q (classified=%v), want normal", obs.Round, obs.ClassName, obs.Classified)
		}
		if obs.Summary == nil || !obs.Summary.Reversible {
			t.Errorf("round %d analysis missing or irreversible", obs.Round)
		}
	}
}
