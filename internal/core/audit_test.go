package core

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"ice/internal/netsim"
	"ice/internal/pyro"
)

// deployAudited builds a deployment with the provenance journal on.
func deployAudited(t *testing.T) *Deployment {
	t.Helper()
	d := deploy(t)
	if err := d.Agent.EnableAudit(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAuditJournalRecordsAndTravelsDataChannel(t *testing.T) {
	d := deployAudited(t)
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	// Run the Fig. 5 fill sequence.
	steps := []func() (string, error){
		func() (string, error) { return session.SetRateSyringePump(1, 5.0) },
		func() (string, error) { return session.SetPortSyringePump(1, 8) },
		func() (string, error) { return session.WithdrawSyringePump(1, 6.0) },
		func() (string, error) { return session.SetPortSyringePump(1, 1) },
		func() (string, error) { return session.DispenseSyringePump(1, 6.0) },
	}
	for _, step := range steps {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	// Monitoring calls must NOT be journaled.
	session.JKemStatus()
	session.ReadTemperature(1)

	// Fetch the journal over the data channel like any measurement.
	data, _, err := mount.WaitFor(AuditFileName, 10*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseAuditJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(steps) {
		t.Fatalf("journal has %d entries, want %d:\n%s", len(entries), len(steps), data)
	}
	if entries[0].Method != "SetRateSyringePump" || entries[4].Method != "DispenseSyringePump" {
		t.Errorf("journal order wrong: %v … %v", entries[0].Method, entries[4].Method)
	}
	for i, e := range entries {
		if e.Seq != i+1 {
			t.Errorf("entry %d has seq %d", i, e.Seq)
		}
		if e.Object != JKemObject {
			t.Errorf("entry %d object %q", i, e.Object)
		}
		if e.TimeUnixNano == 0 {
			t.Errorf("entry %d missing timestamp", i)
		}
	}
}

func TestReplayJournalReproducesExperiment(t *testing.T) {
	// Record on deployment A.
	src := deployAudited(t)
	session, mount, err := src.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()
	for _, step := range []func() (string, error){
		func() (string, error) { return session.SetRateSyringePump(1, 5.0) },
		func() (string, error) { return session.SetPortSyringePump(1, 8) },
		func() (string, error) { return session.WithdrawSyringePump(1, 6.0) },
		func() (string, error) { return session.SetPortSyringePump(1, 1) },
		func() (string, error) { return session.DispenseSyringePump(1, 6.0) },
		func() (string, error) { return session.SetGasFlow(1, 20) },
	} {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := mount.WaitFor(AuditFileName, 10*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseAuditJournal(data)
	if err != nil {
		t.Fatal(err)
	}

	// Replay onto a fresh deployment B.
	dst := deploy(t)
	results, err := ReplayJournal(entries, dst.DaemonURI,
		pyro.Dialer(dst.Network.Dialer(netsim.HostDGX)), "", false)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != len(entries) {
		t.Fatalf("replayed %d of %d", len(results), len(entries))
	}
	// Deployment B's physical state matches A's.
	a := src.Agent.Cell().Snapshot()
	b := dst.Agent.Cell().Snapshot()
	if math.Abs(a.Volume.Milliliters()-b.Volume.Milliliters()) > 1e-9 {
		t.Errorf("volumes differ: %v vs %v", a.Volume, b.Volume)
	}
	if b.GasFlow.SCCM() != 20 {
		t.Errorf("replayed gas flow = %v", b.GasFlow)
	}
	if !b.HasSolution || b.Solution.Analyte.Name != a.Solution.Analyte.Name {
		t.Errorf("replayed solution = %+v", b.Solution)
	}
}

func TestReplayJournalStopsOnError(t *testing.T) {
	entries := []AuditEntry{
		{Seq: 1, Object: JKemObject, Method: "SetPortSyringePump", Args: rawArgs(t, 1, 8)},
		{Seq: 2, Object: JKemObject, Method: "WithdrawSyringePump", Args: rawArgs(t, 1, 999.0)}, // overfill
		{Seq: 3, Object: JKemObject, Method: "SetPortSyringePump", Args: rawArgs(t, 1, 1)},
	}
	d := deploy(t)
	results, err := ReplayJournal(entries, d.DaemonURI,
		pyro.Dialer(d.Network.Dialer(netsim.HostDGX)), "", false)
	if err == nil {
		t.Fatal("overfill replay succeeded")
	}
	if len(results) != 2 || results[1].Err == nil {
		t.Errorf("results = %d, last err %v", len(results), results[len(results)-1].Err)
	}
	// continueOnError pushes through.
	results, err = ReplayJournal(entries, d.DaemonURI,
		pyro.Dialer(d.Network.Dialer(netsim.HostDGX)), "", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[2].Err != nil {
		t.Errorf("continueOnError results = %+v", results)
	}
}

func TestParseAuditJournalToleratesTruncation(t *testing.T) {
	full := []byte(`{"seq":1,"t":1,"object":"ACL_JKem","method":"M"}` + "\n" +
		`{"seq":2,"t":2,"object":"ACL_JKem","met`)
	entries, err := ParseAuditJournal(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("entries = %d, want 1 (truncated tail dropped)", len(entries))
	}
}

// TestParseAuditJournalRejectsInteriorCorruption: a bad line with
// entries after it is corruption, not a torn tail. Stopping there would
// hand the exactly-once audit a silently shortened history.
func TestParseAuditJournalRejectsInteriorCorruption(t *testing.T) {
	data := []byte(`{"seq":1,"t":1,"object":"ACL_JKem","method":"M"}` + "\n" +
		"garbage\n" +
		`{"seq":2,"t":2,"object":"ACL_JKem","method":"M"}` + "\n")
	if entries, err := ParseAuditJournal(data); err == nil {
		t.Fatalf("mid-journal corruption parsed as %d entries and no error", len(entries))
	}
}

func TestEnableAuditBeforeServeFails(t *testing.T) {
	agent, err := NewControlAgent(DefaultAgentConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.EnableAudit(); err == nil {
		t.Error("EnableAudit before ServeControl accepted")
	}
}

func rawArgs(t *testing.T, args ...any) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(args))
	for i, a := range args {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}
