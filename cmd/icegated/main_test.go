package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"ice/internal/sched"
	"ice/internal/trace"
)

// runMainEnv makes the test binary run the real main(), so the tests
// below start a child process whose flag parsing, lab bring-up, probe
// wiring and HTTP serving are those of a deployed icegated.
const runMainEnv = "ICEGATED_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDaemonSelfLab runs icegated -selflab: two tenants' cv and
// campaign jobs and a two-cell campaign reach DONE over HTTP, the
// lease table drains, SIGTERM exits cleanly, and the exported trace
// holds the two-cell campaign's round spans.
func TestDaemonSelfLab(t *testing.T) {
	dir := t.TempDir()
	export := filepath.Join(dir, "trace.jsonl")
	base, stop := startDaemon(t, "-selflab", "-listen", "127.0.0.1:0", "-dir", filepath.Join(dir, "state"), "-trace-export", export)
	jobs := runJobs(t, base,
		`{"tenant": "acl", "kind": "cv", "points": 600}`,
		`{"tenant": "dgx", "kind": "campaign", "cells": [
			{"name": "smoke-cell", "rounds": [{"concentration_mm": 2}, {"scan_rate_mvs": 100}]}]}`,
		`{"tenant": "acl", "kind": "campaign", "cells": [
			{"name": "cell-a", "rounds": [{"concentration_mm": 1}, {"concentration_mm": 2}]},
			{"name": "cell-b", "rounds": [{"concentration_mm": 4}, {"concentration_mm": 8}]}]}`)
	stop()

	f, err := os.Open(export)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	fleet := jobs[2]
	var spans []trace.Record
	for _, rec := range recs {
		if rec.TraceID == fleet.TraceID {
			spans = append(spans, rec)
		}
	}
	for _, want := range []string{"job " + fleet.ID, "sched.run", "campaign.round 1", "campaign.acquire", "campaign.retrieve", "campaign.analyze"} {
		if !slices.ContainsFunc(spans, func(rec trace.Record) bool { return rec.Name == want }) {
			t.Errorf("exported trace of %s has no %q span (%d spans)", fleet.ID, want, len(spans))
		}
	}
	if orphans := trace.Orphans(spans); len(orphans) != 0 {
		t.Errorf("exported trace has %d orphaned spans: %v", len(orphans), orphans)
	}
	b := trace.Analyze(spans)
	sum := b.Instrument + b.Data + b.Analysis + b.Sched + b.Control + b.Other + b.Idle
	if b.Instrument <= 0 || b.Data <= 0 || sum < b.Wall*95/100 || sum > b.Wall*105/100 {
		t.Errorf("critical path does not partition the wall time to ±5 %%:\n%s", trace.RenderBreakdown(b))
	}
}

// TestDaemonDeclaredLab runs icegated -lab on the microscopy config: a
// cv job and a scan job reach DONE side by side, both instrument
// classes are probed, the lease table drains and SIGTERM exits cleanly.
func TestDaemonDeclaredLab(t *testing.T) {
	base, stop := startDaemon(t, "-lab", filepath.Join("..", "..", "examples", "labs", "microscopy.yaml"),
		"-listen", "127.0.0.1:0", "-dir", t.TempDir())
	runJobs(t, base,
		`{"tenant": "acl", "kind": "cv", "points": 600}`,
		`{"tenant": "stem", "kind": "scan", "scan": {"tiles_x": 6, "tiles_y": 6, "pixels_per_tile": 8, "zoom_factor": 3}}`)
	var metrics struct{ Counters map[string]int64 }
	getJSON(t, base+"/v1/metrics?format=json", &metrics)
	for _, series := range []string{"probe.total", "scanprobe.total"} {
		if _, ok := metrics.Counters[series]; !ok {
			t.Errorf("/v1/metrics has no %s series: that prober is not wired", series)
		}
	}
	stop()
}

// startDaemon starts main() in a child process with args and returns
// the base URL from its "listening on" log line, and a stop func that
// sends SIGTERM and requires exit status 0.
func startDaemon(t *testing.T, args ...string) (base string, stop func()) {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "icegated.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() // a no-op once stop has run
		cmd.Wait()
		if log, _ := os.ReadFile(logPath); t.Failed() {
			t.Logf("icegated log:\n%s", log)
		}
	})
	for deadline := time.Now().Add(30 * time.Second); base == ""; time.Sleep(10 * time.Millisecond) {
		log, _ := os.ReadFile(logPath)
		_, rest, _ := strings.Cut(string(log), "listening on ")
		if addr, _, ok := strings.Cut(rest, " "); ok {
			base = addr
		} else if time.Now().After(deadline) {
			t.Fatal("icegated never logged its listen address")
		}
	}
	return base, func() {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		hung := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
		defer hung.Stop()
		if err := cmd.Wait(); err != nil {
			t.Fatalf("icegated after SIGTERM: %v", err)
		}
	}
}

// runJobs submits each spec, waits for every job to finish DONE, and
// requires the lease table to be empty afterwards.
func runJobs(t *testing.T, base string, specs ...string) []sched.Job {
	t.Helper()
	var jobs []sched.Job
	for _, spec := range specs {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var job sched.Job
		if err := json.Unmarshal(body, &job); resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("submit: %s: %s", resp.Status, body)
		}
		jobs = append(jobs, job)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for i := range jobs {
		for job := &jobs[i]; !job.State.Terminal(); getJSON(t, base+"/v1/jobs/"+job.ID, job) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish in time", job.ID)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if jobs[i].State != sched.StateDone {
			t.Fatalf("job %s ended %s: %s", jobs[i].ID, jobs[i].State, jobs[i].Error)
		}
	}
	var leases struct{ Leases []sched.LeaseInfo }
	getJSON(t, base+"/v1/leases", &leases)
	if len(leases.Leases) != 0 {
		t.Errorf("leaked leases after completion: %+v", leases.Leases)
	}
	return jobs
}

// getJSON decodes the 200 answer to a GET of url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s (%v)", url, resp.Status, err)
	}
}
