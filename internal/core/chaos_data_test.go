package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ice/internal/datachan"
	"ice/internal/netsim"
	"ice/internal/telemetry"
	"ice/internal/testutil"
)

// dataChaosSeed is a fixed fault-generator seed under which the 20%
// data-port loss schedule provably interrupts the measurement transfer
// mid-file, exercising redial AND resume-from-verified-offset (the
// assertions below fail if a future change shifts the schedule away
// from that).
const dataChaosSeed = 11

// runCVWorkflowOn executes the paper's A–E notebook against a session
// and an already-open mount and returns the outcome.
func runCVWorkflowOn(t *testing.T, session *RemoteSession, mount datachan.Share) *CVOutcome {
	t.Helper()
	nb, outcome := BuildCVWorkflow(session, mount, PaperCVWorkflowConfig())
	if err := nb.Execute(context.Background()); err != nil {
		t.Fatalf("workflow: %v\n%s", err, strings.Join(nb.Transcript(), "\n"))
	}
	return outcome
}

// TestChaosDataChannelLoss is experiment X6: under 20% packet loss
// scoped to the data port, the reliable mount must deliver a
// measurement file record-identical (and SHA-256-identical) to the
// fault-free run's, resuming interrupted transfers from the last
// verified offset so no verified byte is re-read beyond one in-flight
// chunk per interruption.
func TestChaosDataChannelLoss(t *testing.T) {
	// Reference run: healthy fabric, same reliable machinery, metrics
	// attached to prove every datachan counter stays zero when nothing
	// goes wrong.
	ref := deploy(t)
	refMetrics := telemetry.NewCollector()
	ref.Network.SetMetrics(refMetrics)
	refSession, refMount, err := ref.ConnectReliableFrom(netsim.HostDGX, SessionOptions{
		Metrics: refMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer refSession.Close()
	defer refMount.Close()
	refOutcome := runCVWorkflowOn(t, refSession, refMount)
	for _, counter := range []string{
		"datachan.redials", "datachan.resumes",
		"datachan.checksum_failures", "datachan.bytes_resumed",
	} {
		if v := refMetrics.CounterValue(counter); v != 0 {
			t.Errorf("fault-free run: %s = %d, want 0", counter, v)
		}
	}
	if refOutcome.SHA256 == "" {
		t.Fatal("fault-free run recorded no end-to-end digest")
	}
	if h := refSession.Health(); h.DataChannelDegraded {
		t.Error("fault-free run flagged the data channel degraded")
	}

	// Chaos run: 20% of data-port writes are lost in transit on the
	// site network, each loss tearing the connection down mid-stream.
	// The control channel stays clean — this experiment isolates the
	// data path.
	d := deploy(t)
	metrics := telemetry.NewCollector()
	d.Network.SetSeed(dataChaosSeed)
	d.Network.SetMetrics(metrics)
	if err := d.Network.SetHubFaults(netsim.HubSite, netsim.FaultSpec{
		Loss:  0.20,
		Ports: []int{netsim.PaperPorts.Data},
	}); err != nil {
		t.Fatal(err)
	}
	session, mount, err := d.ConnectReliableFrom(netsim.HostDGX, SessionOptions{
		MaxRetries: 50,
		Backoff:    time.Millisecond,
		Metrics:    metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()
	// Small chunks checkpoint verified progress often, so the lossy
	// link interrupts transfers mid-file rather than between files.
	const chunk = 2048
	mount.ChunkBytes = chunk
	outcome := runCVWorkflowOn(t, session, mount)

	// Record-identical voltammogram, byte-identical file.
	if len(outcome.Records) == 0 || len(outcome.Records) != len(refOutcome.Records) {
		t.Fatalf("chaos run collected %d records, fault-free %d",
			len(outcome.Records), len(refOutcome.Records))
	}
	for i := range outcome.Records {
		if outcome.Records[i] != refOutcome.Records[i] {
			t.Fatalf("record %d diverged under data-channel chaos: %+v vs %+v",
				i, outcome.Records[i], refOutcome.Records[i])
		}
	}
	if outcome.SHA256 != refOutcome.SHA256 {
		t.Errorf("end-to-end digest diverged: %s vs %s", outcome.SHA256, refOutcome.SHA256)
	}

	// The run only survived because the reliability machinery fired,
	// and the flapping was surfaced to the session's health.
	if v := metrics.CounterValue("netsim.faults.loss"); v == 0 {
		t.Error("no losses injected — chaos schedule did not engage")
	}
	s := mount.Stats()
	if s.Redials == 0 {
		t.Error("no data-channel redials under 20% loss")
	}
	if s.Resumes == 0 {
		t.Error("no mid-file resumes: transfer never interrupted (pick a different dataChaosSeed)")
	}
	if metrics.CounterValue("datachan.redials") != s.Redials ||
		metrics.CounterValue("datachan.resumes") != s.Resumes ||
		metrics.CounterValue("datachan.bytes_resumed") != s.BytesResumed {
		t.Errorf("telemetry counters disagree with mount stats: %+v", s)
	}
	if v := s.ChecksumFailures; v != 0 {
		t.Errorf("datachan.checksum_failures = %d under pure loss (CRC should catch nothing)", v)
	}
	if h := session.Health(); !h.DataChannelDegraded {
		t.Error("data-channel flapping not reflected in session health")
	}

	// Zero re-read of verified bytes: the export served at most the
	// file itself plus one in-flight chunk per interruption (each
	// redial or resume re-reads at most the chunk that was in transit
	// when the link died).
	fi, err := os.Stat(filepath.Join(d.Agent.MeasurementDir(), outcome.FileName))
	if err != nil {
		t.Fatal(err)
	}
	served := d.Agent.DataExport().BytesServed()
	bound := fi.Size() + (s.Redials+s.Resumes+1)*chunk
	if served > bound {
		t.Errorf("export served %d bytes for a %d-byte file (%d redials, %d resumes): verified bytes were re-read",
			served, fi.Size(), s.Redials, s.Resumes)
	}
	// And the export itself rode out every torn connection.
	if d.Agent.DataExport().ConnFailures() == 0 {
		t.Error("export counted no connection failures under 20% loss")
	}
}

// TestChaosDataWatcherExactlyOnceAcrossOutage scripts a hub outage
// under a running watcher: files appearing before, during and after
// the outage must each be reported exactly once, and the watcher must
// come back by itself when the link does.
func TestChaosDataWatcherExactlyOnceAcrossOutage(t *testing.T) {
	d := deploy(t)
	metrics := telemetry.NewCollector()
	d.Network.SetMetrics(metrics)
	_, mount, err := d.ConnectReliableFrom(netsim.HostDGX, SessionOptions{
		MaxRetries: 50,
		Backoff:    time.Millisecond,
		Metrics:    metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mount.Close()

	write := func(name string) {
		t.Helper()
		// Published atomically: a 5 ms poll must never list a
		// half-written file, or it reports it Created then Modified.
		path := filepath.Join(d.Agent.MeasurementDir(), name)
		if err := testutil.WriteAtomic(path, []byte("measurement "+name)); err != nil {
			t.Fatal(err)
		}
	}
	next := func(w *datachan.Watcher) datachan.Event {
		t.Helper()
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watcher stopped: %v", w.Err())
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("no watcher event within 10s")
		}
		panic("unreachable")
	}

	write("before.mpt")
	w := mount.Watch(5 * time.Millisecond)
	defer w.Stop()
	time.Sleep(30 * time.Millisecond) // prime: before.mpt is pre-existing

	write("one.mpt")
	if ev := next(w); ev.Type != datachan.Created || ev.File.Name != "one.mpt" {
		t.Fatalf("pre-outage event = %v %q", ev.Type, ev.File.Name)
	}

	// Outage: the site hub goes down, polls fail, a file lands while
	// the watcher is blind.
	if err := d.Network.SetHubDown(netsim.HubSite, true); err != nil {
		t.Fatal(err)
	}
	write("during.mpt")
	time.Sleep(30 * time.Millisecond) // several failed polls while down
	if err := d.Network.SetHubDown(netsim.HubSite, false); err != nil {
		t.Fatal(err)
	}

	if ev := next(w); ev.Type != datachan.Created || ev.File.Name != "during.mpt" {
		t.Fatalf("post-outage event = %v %q", ev.Type, ev.File.Name)
	}
	write("after.mpt")
	if ev := next(w); ev.Type != datachan.Created || ev.File.Name != "after.mpt" {
		t.Fatalf("post-recovery event = %v %q", ev.Type, ev.File.Name)
	}

	// Exactly once: nothing further pending — neither the primed file
	// nor the already-reported ones were re-announced by the re-list.
	select {
	case ev := <-w.Events():
		t.Fatalf("duplicate event after outage: %v %q", ev.Type, ev.File.Name)
	case <-time.After(100 * time.Millisecond):
	}
	if w.Err() != nil {
		t.Errorf("self-healing watcher recorded error: %v", w.Err())
	}
	if s := mount.Stats(); s.Redials == 0 {
		t.Error("watcher rode out the outage without a redial?")
	}
}
