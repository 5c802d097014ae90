package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/sched"
)

// checkJob verifies one job's output: the terminal state the client
// saw must be DONE and the result must be what its kind promises.
func checkJob(r *rig, rec *jobRecord) error {
	if rec.status != http.StatusAccepted {
		return rec.checkErr
	}
	job, ok := r.sched.Job(rec.id)
	if !ok {
		return fmt.Errorf("job %s unknown to the scheduler", rec.id)
	}
	if rec.terminal != "done" || job.State != sched.StateDone {
		return fmt.Errorf("job %s (%s) ended %s/%q: %s", rec.id, rec.gen.kind, job.State, rec.terminal, job.Error)
	}
	switch rec.gen.kind {
	case kindCV:
		var res sched.CVResult
		if err := json.Unmarshal(job.Result, &res); err != nil {
			return err
		}
		// The digest the verdict carries must be the digest of the file on
		// the station's disk, and a correctly filled cell reads normal.
		data, err := os.ReadFile(filepath.Join(r.fac.EchemStation().Dir, res.File))
		if err != nil {
			return fmt.Errorf("job %s: station file: %w", rec.id, err)
		}
		sum := sha256.Sum256(data)
		switch {
		case res.SHA256 != hex.EncodeToString(sum[:]):
			return fmt.Errorf("job %s: result sha256 %.12s is not the station file's %.12s", rec.id, res.SHA256, hex.EncodeToString(sum[:]))
		case res.Points <= 0:
			return fmt.Errorf("job %s: no points", rec.id)
		case res.ClassName != "normal":
			return fmt.Errorf("job %s: verdict %q, want normal", rec.id, res.ClassName)
		}
	case kindDAGHit, kindDAGMiss:
		var res dag.Result
		if err := json.Unmarshal(job.Result, &res); err != nil {
			return err
		}
		wantCached := 0
		if rec.gen.kind == kindDAGHit {
			wantCached = 4 // acquire, retrieve, analyze, classify
		}
		if res.NodesCached != wantCached {
			return fmt.Errorf("job %s (%s): %d nodes cached, want %d", rec.id, rec.gen.kind, res.NodesCached, wantCached)
		}
		verdict := ""
		for _, n := range res.Nodes {
			if n.Type == dag.TypeClassify {
				verdict = n.ClassName
			}
		}
		if verdict != "normal" {
			return fmt.Errorf("job %s: verdict %q, want normal", rec.id, verdict)
		}
	case kindScan:
		var res sched.ScanResult
		if err := json.Unmarshal(job.Result, &res); err != nil {
			return err
		}
		if res.Tiles < 36 || !res.Zoomed || res.SHA256 == "" {
			return fmt.Errorf("job %s: scan incomplete: %d tiles, zoomed %v", rec.id, res.Tiles, res.Zoomed)
		}
	case kindCampaign:
		var res sched.CampaignResult
		if err := json.Unmarshal(job.Result, &res); err != nil {
			return err
		}
		if len(res.Cells) != campaignCells {
			return fmt.Errorf("job %s: %d cells, want %d", rec.id, len(res.Cells), campaignCells)
		}
		for _, cell := range res.Cells {
			if cell.Error != "" || len(cell.Rounds) != campaignRounds {
				return fmt.Errorf("job %s: cell %s has %d rounds, error %q", rec.id, cell.Name, len(cell.Rounds), cell.Error)
			}
		}
	case kindNull:
		if string(job.Result) != `{"ok":true}` {
			return fmt.Errorf("job %s: result %s", rec.id, job.Result)
		}
	}
	return nil
}

// checkJobs runs checkJob over every record, storing each finding on
// the record, and returns how many failed.
func checkJobs(r *rig, jobs []*jobRecord) int {
	failed := 0
	for _, rec := range jobs {
		rec.checkErr = checkJob(r, rec)
		if rec.checkErr != nil {
			failed++
		}
	}
	return failed
}

// auditEntries merges the station audit journals.
func auditEntries(r *rig) ([]core.AuditEntry, error) {
	var all []core.AuditEntry
	for _, st := range r.fac.Stations() {
		data, err := os.ReadFile(st.AuditPath())
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		entries, err := core.ParseAuditJournal(data)
		if err != nil {
			return nil, err
		}
		all = append(all, entries...)
	}
	return all, nil
}

// reconcile holds the instruments' own journals against what the
// clients were told: every job that claims an acquisition made exactly
// one, and no job that claims a cache hit made any — so an engine that
// served a repeated cv from cache could not pass as a speed-up. It
// also requires the lease table to be empty.
func reconcile(r *rig, jobs []*jobRecord) error {
	resp, err := http.Get(r.base + "/v1/leases")
	if err != nil {
		return err
	}
	var leases struct {
		Leases []sched.LeaseInfo `json:"leases"`
	}
	err = json.NewDecoder(resp.Body).Decode(&leases)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if len(leases.Leases) != 0 {
		return fmt.Errorf("leaked leases: %+v", leases.Leases)
	}
	if r.fac == nil {
		return nil
	}
	wantAcquire, wantScan := 0, 0
	for _, rec := range jobs {
		if !rec.ok() {
			continue
		}
		switch rec.gen.kind {
		case kindCV, kindDAGMiss:
			wantAcquire++
		case kindCampaign:
			wantAcquire += campaignCells * campaignRounds
		case kindScan:
			wantScan++
		}
	}
	entries, err := auditEntries(r)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	for _, e := range entries {
		counts[e.Method]++
	}
	if got := counts["StartChannelSP200"]; got != wantAcquire {
		return fmt.Errorf("audit: StartChannelSP200 ran %d times, the verdicts account for %d", got, wantAcquire)
	}
	if got := counts["StartScanTech"]; got != wantScan {
		return fmt.Errorf("audit: StartScanTech ran %d times, the verdicts account for %d", got, wantScan)
	}
	return nil
}

// goroutineSlack is how far above the pre-run count the goroutine
// count may settle: the HTTP client's idle-connection readers linger
// briefly after CloseIdleConnections.
const goroutineSlack = 8
