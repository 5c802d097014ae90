package labreg

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ice/internal/core"
	"ice/internal/sched"
	"ice/internal/sched/health"
	"ice/internal/testutil"
)

// TestScanJobThroughFacility runs the mixed microscopy workload end to
// end: a scan job and a cv job go in together to a scheduler whose
// runner connects through the config-built facility and whose health
// supervision (instrument map, per-kind classes, probers) comes from
// the registry. The scan must survey, steer onto the specimen's best
// structure, and return a digest-verified scan file; the cv job
// completes beside it on the disjoint echem lease; the stations' audit
// journals show each instrument started exactly once; and no lease,
// breaker or goroutine is left behind.
func TestScanJobThroughFacility(t *testing.T) {
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		if err := testutil.WaitGoroutines(baseline, 0, 5*time.Second); err != nil {
			t.Error(err)
		}
	})
	f := loadExample(t, "microscopy.yaml")
	if err := f.EnableAudit(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	instruments := f.HealthInstruments()
	s, err := sched.New(sched.Config{
		Dir:     filepath.Join(dir, "state"),
		Workers: 2,
		Health: sched.HealthConfig{
			ProbeInterval: 100 * time.Millisecond,
			Instruments:   instruments,
			ClassesFor:    f.ClassesFor,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	labProber := &sched.LabProber{Connector: f}
	scanProber := &sched.ScanProber{Connector: f}
	t.Cleanup(labProber.Close)
	t.Cleanup(scanProber.Close)
	for _, res := range instruments["stem"] {
		s.RegisterProber(res, scanProber.Prober())
	}
	for _, res := range append(instruments["sp200"], instruments["jkem"]...) {
		s.RegisterProber(res, labProber.ProberFor(res))
	}
	s.SetRunner(&sched.LabRunner{Connector: f, Leases: s.Leases(), Dir: s.Dir()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	job, err := s.Submit(sched.JobSpec{
		Tenant: "stem",
		Kind:   sched.KindScan,
		Scan:   &sched.ScanSpec{TilesX: 6, TilesY: 6, PixelsPerTile: 8, ZoomFactor: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cvJob, err := s.Submit(sched.JobSpec{Tenant: "acl", Kind: sched.KindCV, Points: 300})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := s.WaitTerminal(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateDone {
		t.Fatalf("scan job ended %s: %s", final.State, final.Error)
	}

	var res sched.ScanResult
	if err := json.Unmarshal([]byte(final.Result), &res); err != nil {
		t.Fatal(err)
	}
	if res.SHA256 == "" || res.File == "" {
		t.Fatalf("scan result missing digest/file: %+v", res)
	}
	if res.Tiles < 36 || res.Passes < 1 {
		t.Fatalf("scan result too small: %+v", res)
	}
	if !res.Zoomed || res.ZoomRegion == nil {
		t.Fatalf("steering never zoomed: %+v", res)
	}
	if res.Passes < 2 {
		t.Fatalf("zoomed scan has %d pass(es), want survey + zoom", res.Passes)
	}

	cvFinal, err := s.WaitTerminal(ctx, cvJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	var cv sched.CVResult
	if err := json.Unmarshal(cvFinal.Result, &cv); cvFinal.State != sched.StateDone || err != nil || cv.SHA256 == "" || cv.Points == 0 {
		t.Fatalf("cv job on mixed facility ended %s: %s %s", cvFinal.State, cvFinal.Error, cvFinal.Result)
	}

	if active := s.Leases().Active(); len(active) != 0 {
		t.Fatalf("leaked leases after the mixed run: %+v", active)
	}
	supervised := map[string]bool{}
	for _, ih := range s.Health().Snapshot() {
		supervised[ih.Resource] = ih.State == health.Closed
	}
	for _, res := range []string{sched.ResourceSP200, sched.ResourceJKem, sched.ResourceScan} {
		if !supervised[res] {
			t.Errorf("%s is not a closed breaker after the mixed run: %+v", res, s.Health().Snapshot())
		}
	}

	counts := map[string]int{}
	for _, st := range f.Stations() {
		data, err := os.ReadFile(st.AuditPath())
		if err != nil {
			t.Fatal(err)
		}
		entries, err := core.ParseAuditJournal(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			counts[e.Method]++
		}
	}
	for _, method := range []string{"StartChannelSP200", "StartScanTech", "SteerScan", "FinishScan"} {
		if counts[method] != 1 {
			t.Errorf("station audit journals show %s ×%d, want exactly once", method, counts[method])
		}
	}
}
