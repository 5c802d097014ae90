package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ice/internal/datachan"
	"ice/internal/jsonl"
	"ice/internal/netsim"
	"ice/internal/telemetry"
	"ice/internal/workflow"
)

// chaosSeed is a fixed fault-generator seed under which the 20%
// reply-loss schedule provably exercises retries AND hits the daemon's
// reply-dedup cache during the CV workflow (the assertions below fail
// if a future change shifts the schedule away from that).
const chaosSeed = 2

// runCVWorkflow executes the paper's A–E notebook against a session
// and returns the outcome.
func runCVWorkflow(t *testing.T, d *Deployment, session *RemoteSession) *CVOutcome {
	t.Helper()
	conn, err := d.Network.Dial(netsim.HostDGX, d.DataAddr)
	if err != nil {
		t.Fatal(err)
	}
	mount := datachan.NewMount(conn)
	t.Cleanup(func() { mount.Close() })
	nb, outcome := BuildCVWorkflow(session, mount, PaperCVWorkflowConfig())
	if err := nb.Execute(context.Background()); err != nil {
		t.Fatalf("workflow: %v\n%s", err, strings.Join(nb.Transcript(), "\n"))
	}
	return outcome
}

// countSBCCommands counts occurrences of a command token in the
// agent's SBC console log.
func countSBCCommands(d *Deployment, token string) int {
	count := 0
	for _, line := range d.Agent.SBC().CommandLog() {
		if strings.Contains(line, token) {
			count++
		}
	}
	return count
}

func TestChaosExactlyOnceUnderReplyLoss(t *testing.T) {
	// Reference run: no faults, plain session, metrics attached to
	// prove every chaos counter stays zero on a healthy fabric.
	ref := deploy(t)
	refMetrics := telemetry.NewCollector()
	ref.Network.SetMetrics(refMetrics)
	ref.Agent.Daemon().SetMetrics(refMetrics)
	refSession, _, err := ref.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer refSession.Close()
	refOutcome := runCVWorkflow(t, ref, refSession)
	for _, counter := range []string{
		"pyro.retries", "pyro.redials", "pyro.dedup_hits",
		"netsim.faults.loss", "netsim.faults.corrupt", "netsim.faults.drop",
	} {
		if v := refMetrics.CounterValue(counter); v != 0 {
			t.Errorf("fault-free run: %s = %d, want 0", counter, v)
		}
	}

	// Chaos run: 20% of control-channel replies are lost in transit on
	// the site network. The data channel (port 4450) stays clean, so
	// measurement retrieval is unaffected; only command replies die.
	d := deploy(t)
	metrics := telemetry.NewCollector()
	d.Network.SetSeed(chaosSeed)
	d.Network.SetMetrics(metrics)
	d.Agent.Daemon().SetMetrics(metrics)
	if err := d.Network.SetHubFaults(netsim.HubSite, netsim.FaultSpec{
		Loss:      0.20,
		ReplyOnly: true,
		Ports:     []int{netsim.PaperPorts.Control},
	}); err != nil {
		t.Fatal(err)
	}
	session, mount, err := d.ConnectReliableFrom(netsim.HostDGX, SessionOptions{
		MaxRetries: 30,
		Backoff:    2 * time.Millisecond,
		Metrics:    metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()
	outcome := runCVWorkflow(t, d, session)

	// The cell holds exactly the commanded 6 mL: the marked
	// Withdraw/Dispense commands executed once each despite their
	// replies being fair game for the loss schedule.
	if v := d.Agent.Cell().Snapshot().Volume.Milliliters(); math.Abs(v-6) > 1e-9 {
		t.Errorf("cell volume under chaos = %v mL, want exactly 6", v)
	}
	if n := countSBCCommands(d, "SYRINGEPUMP_DISPENSE"); n != 1 {
		t.Errorf("SBC saw %d dispense commands, want exactly 1", n)
	}
	if n := countSBCCommands(d, "SYRINGEPUMP_WITHDRAW"); n != 1 {
		t.Errorf("SBC saw %d withdraw commands, want exactly 1", n)
	}

	// The voltammogram is identical to the fault-free run's.
	if len(outcome.Records) == 0 || len(outcome.Records) != len(refOutcome.Records) {
		t.Fatalf("chaos run collected %d records, fault-free %d",
			len(outcome.Records), len(refOutcome.Records))
	}
	for i := range outcome.Records {
		if outcome.Records[i] != refOutcome.Records[i] {
			t.Fatalf("record %d diverged under chaos: %+v vs %+v",
				i, outcome.Records[i], refOutcome.Records[i])
		}
	}

	// The run only survived because the reliability machinery fired.
	if v := metrics.CounterValue("netsim.faults.loss"); v == 0 {
		t.Error("no losses injected — chaos schedule did not engage")
	}
	if v := metrics.CounterValue("pyro.retries"); v == 0 {
		t.Error("no retries counted under 20% reply loss")
	}
	if v := metrics.CounterValue("pyro.dedup_hits"); v == 0 {
		t.Error("no dedup hits: no marked command had its reply lost (pick a different chaosSeed)")
	}
	if d.Agent.Daemon().DedupHits() != metrics.CounterValue("pyro.dedup_hits") {
		t.Error("daemon DedupHits disagrees with the telemetry counter")
	}
}

// TestChaosStreamingDigestVerifiedUnderLoss turns streaming analysis
// on with 20% reply loss on BOTH the control and data ports: the
// tail-read rides the reliable mount's redials, the streamed bytes
// still pass end-to-end digest verification, and the marked commands
// still execute exactly once.
func TestChaosStreamingDigestVerifiedUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("paced acquisition under chaos")
	}
	base, err := Deploy(t.TempDir(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { base.Close() })
	metrics := telemetry.NewCollector()
	base.Network.SetSeed(chaosSeed)
	base.Network.SetMetrics(metrics)
	if err := base.Network.SetHubFaults(netsim.HubSite, netsim.FaultSpec{
		Loss:      0.20,
		ReplyOnly: true,
		Ports:     []int{netsim.PaperPorts.Control, netsim.PaperPorts.Data},
	}); err != nil {
		t.Fatal(err)
	}
	session, mount, err := base.ConnectReliableFrom(netsim.HostDGX, SessionOptions{
		MaxRetries: 30,
		Backoff:    2 * time.Millisecond,
		Metrics:    metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	cfg := PaperCVWorkflowConfig()
	cfg.CV.Points = 400
	cfg.StreamAnalysis = true
	nb, outcome := BuildCVWorkflow(session, mount, cfg)
	if err := nb.Execute(context.Background()); err != nil {
		t.Fatalf("workflow: %v\n%s", err, strings.Join(nb.Transcript(), "\n"))
	}

	if !outcome.Streamed {
		t.Errorf("stream did not survive 20%% data-channel loss; transcript:\n%s",
			strings.Join(nb.Transcript(), "\n"))
	}
	if outcome.SHA256 == "" || len(outcome.Records) != 401 {
		t.Errorf("outcome: %d records, sha %q", len(outcome.Records), outcome.SHA256)
	}
	if v := base.Agent.Cell().Snapshot().Volume.Milliliters(); math.Abs(v-6) > 1e-9 {
		t.Errorf("cell volume under chaos = %v mL, want exactly 6", v)
	}
	if n := countSBCCommands(base, "SYRINGEPUMP_DISPENSE"); n != 1 {
		t.Errorf("SBC saw %d dispense commands, want exactly 1", n)
	}
	if v := metrics.CounterValue("netsim.faults.loss"); v == 0 {
		t.Error("no losses injected — chaos schedule did not engage")
	}
}

func TestChaosResumeAfterClientRestart(t *testing.T) {
	d := deploy(t)
	journalPath := filepath.Join(t.TempDir(), "cv.journal")

	// Phase 1: the data channel dies before task D retrieves the
	// measurement file, so the run fails after A–C completed (and C
	// moved real liquid). Checkpoints land in an fsynced jsonl.Log.
	session1, mount1, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session1.Close()
	mount1.Close() // the "crash": data channel gone mid-campaign
	journal1, err := jsonl.Open(journalPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	nb1, _ := BuildCVWorkflow(session1, mount1, PaperCVWorkflowConfig())
	nb1.SetJournal(journal1)
	if err := nb1.Execute(context.Background()); err == nil {
		t.Fatal("phase 1 should fail at task D")
	}
	journal1.Close()
	if r, _ := nb1.Result("C"); r.Status != workflow.OK {
		t.Fatalf("task C = %v, want OK before the crash", r.Status)
	}

	// Phase 2: a "restarted icectl" — fresh session, fresh notebook —
	// resumes from the journal. A–C are restored, D and E run.
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := workflow.ReadJournal(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	session2, mount2, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session2.Close()
	defer mount2.Close()
	// Recovery preamble: the crashed run left the SP200 initialized, so
	// reset the instrument link before re-running task D from the top.
	if err := session2.ResetSP200(); err != nil {
		t.Fatalf("reset SP200 before resume: %v", err)
	}
	nb2, outcome := BuildCVWorkflow(session2, mount2, PaperCVWorkflowConfig())
	if n := nb2.Restore(records); n != 3 {
		t.Fatalf("Restore = %d tasks, want 3 (A, B, C)", n)
	}
	if err := nb2.Execute(context.Background()); err != nil {
		t.Fatalf("resume: %v\n%s", err, strings.Join(nb2.Transcript(), "\n"))
	}

	// The fill did NOT re-run: the cell holds 6 mL, not 12, and the
	// SBC saw exactly one withdraw/dispense pair across both phases.
	if v := d.Agent.Cell().Snapshot().Volume.Milliliters(); math.Abs(v-6) > 1e-9 {
		t.Errorf("cell volume after resume = %v mL, want 6 (fill must not repeat)", v)
	}
	if n := countSBCCommands(d, "SYRINGEPUMP_DISPENSE"); n != 1 {
		t.Errorf("SBC saw %d dispense commands across restart, want 1", n)
	}
	if len(outcome.Records) == 0 {
		t.Error("resumed run collected no measurements")
	}
	for _, id := range []string{"A", "B", "C"} {
		r, _ := nb2.Result(id)
		if !r.Restored || r.Status != workflow.OK {
			t.Errorf("task %s = %+v, want restored OK", id, r)
		}
	}
	rd, _ := nb2.Result("D")
	if rd.Restored || rd.Status != workflow.OK {
		t.Errorf("task D = %+v, want freshly executed OK", rd)
	}
}

func TestChaosLinkFlapsAndWatchdog(t *testing.T) {
	d := deploy(t)
	metrics := telemetry.NewCollector()
	d.Network.SetMetrics(metrics)
	session, mount, err := d.ConnectReliableFrom(netsim.HostDGX, SessionOptions{
		MaxRetries: 50,
		Backoff:    5 * time.Millisecond,
		Metrics:    metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	if _, err := session.JKemStatus(); err != nil {
		t.Fatal(err)
	}
	if err := d.Network.ScheduleFlaps(netsim.HubSite, 20*time.Millisecond, 40*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	// Keep issuing status reads through both flaps; the reconnecting
	// session must ride them out.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && metrics.CounterValue("netsim.recoveries") < 2 {
		if _, err := session.JKemStatus(); err != nil {
			t.Fatalf("status read did not survive link flap: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := metrics.CounterValue("netsim.faults.hub_down"); v != 2 {
		t.Errorf("netsim.faults.hub_down = %d, want 2", v)
	}
	if v := metrics.CounterValue("netsim.recoveries"); v != 2 {
		t.Errorf("netsim.recoveries = %d, want 2", v)
	}
	if v := metrics.CounterValue("pyro.redials"); v == 0 {
		t.Error("no redials counted across two link flaps")
	}
	// One more call on the healed link.
	if _, err := session.JKemStatus(); err != nil {
		t.Fatalf("post-flap status read: %v", err)
	}
}

func TestWatchdogDetectsDeadAgent(t *testing.T) {
	d := deploy(t)
	session, _, err := d.ConnectReliableFrom(netsim.HostDGX, SessionOptions{
		MaxRetries: 1,
		Backoff:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	if _, err := session.JKemStatus(); err != nil {
		t.Fatal(err)
	}
	if err := session.StartWatchdog(10*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	if err := session.StartWatchdog(10*time.Millisecond, 3); err == nil {
		t.Error("second StartWatchdog accepted")
	}
	if h := session.Health(); h.Degraded {
		t.Fatalf("healthy agent reported degraded: %+v", h)
	}
	// Wait for a heartbeat to land so LastContact is populated.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && session.Health().LastContact.IsZero() {
		time.Sleep(5 * time.Millisecond)
	}
	if session.Health().LastContact.IsZero() {
		t.Fatal("watchdog never made contact with a live agent")
	}

	// Kill the control agent; the watchdog must flag degraded mode.
	d.Agent.Close()
	for time.Now().Before(deadline) && !session.Health().Degraded {
		time.Sleep(10 * time.Millisecond)
	}
	h := session.Health()
	if !h.Degraded {
		t.Fatalf("dead agent not detected: %+v", h)
	}
	if h.ConsecutiveMisses < 3 {
		t.Errorf("ConsecutiveMisses = %d, want >= 3", h.ConsecutiveMisses)
	}
	session.StopWatchdog()
	session.StopWatchdog() // idempotent
}

func TestWatchdogValidation(t *testing.T) {
	s := &RemoteSession{}
	if err := s.StartWatchdog(0, 3); err == nil {
		t.Error("zero interval accepted")
	}
	if err := s.StartWatchdog(time.Second, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if h := s.Health(); h.Degraded || h.ConsecutiveMisses != 0 {
		t.Errorf("fresh session health = %+v", h)
	}
}
