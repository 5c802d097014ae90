package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ice/internal/netsim"
	"ice/internal/pyro"
)

func TestMeasureQoS(t *testing.T) {
	d := deploy(t)
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	// Park a probe file on the share.
	if err := os.WriteFile(filepath.Join(d.Agent.MeasurementDir(), "probe.bin"),
		make([]byte, 64*1024), 0o644); err != nil {
		t.Fatal(err)
	}

	report, err := MeasureQoS(session, mount, 20, "probe.bin", 5)
	if err != nil {
		t.Fatal(err)
	}
	if report.ControlRTT.Count() != 20 {
		t.Errorf("RTT samples = %d", report.ControlRTT.Count())
	}
	// RTT must exceed the fabric's physical 2×900 µs floor.
	if report.ControlRTT.Percentile(50) < 1800*time.Microsecond {
		t.Errorf("median RTT %v below physical floor", report.ControlRTT.Percentile(50))
	}
	if report.DataThroughput.Bytes() != 5*64*1024 {
		t.Errorf("data bytes = %d", report.DataThroughput.Bytes())
	}
	if report.ProbeBytes != 64*1024 {
		t.Errorf("probe size = %d", report.ProbeBytes)
	}
	lines := report.Lines()
	if len(lines) != 3 || !strings.Contains(lines[0], "control-rtt") {
		t.Errorf("Lines = %v", lines)
	}
	// Data probe optional.
	if _, err := MeasureQoS(session, mount, 3, "", 0); err != nil {
		t.Errorf("control-only QoS failed: %v", err)
	}
}

func TestRetainMeasurements(t *testing.T) {
	d := deploy(t)
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	// Create five timestamped files.
	for i := 0; i < 5; i++ {
		path := filepath.Join(d.Agent.MeasurementDir(), "run"+string(rune('0'+i))+".mpt")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		older := time.Now().Add(-time.Duration(5-i) * time.Hour)
		os.Chtimes(path, older, older)
	}
	removed, err := session.RetainMeasurements(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Errorf("removed = %d, want 3", removed)
	}
	files, err := mount.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files left = %v", files)
	}
	// The newest two survive.
	names := files[0].Name + "," + files[1].Name
	if !strings.Contains(names, "run3") || !strings.Contains(names, "run4") {
		t.Errorf("survivors = %s, want the newest", names)
	}
	// No-op when already under the limit.
	removed, err = session.RetainMeasurements(10)
	if err != nil || removed != 0 {
		t.Errorf("second retain = %d, %v", removed, err)
	}
	if _, err := session.RetainMeasurements(-1); err == nil {
		t.Error("negative keep accepted")
	}
}

func TestListMeasurementsCatalog(t *testing.T) {
	d := deploy(t)
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	// Produce one CV and one EIS file.
	session.SetPortSyringePump(1, 8)
	session.WithdrawSyringePump(1, 6.0)
	session.SetPortSyringePump(1, 1)
	session.DispenseSyringePump(1, 6.0)
	session.CallInitializeSP200API(PaperSystemParams())
	session.CallConnectSP200()
	session.CallLoadFirmwareSP200()
	params := PaperCVParams()
	params.Points = 200
	session.CallInitializeCVTechSP200(params)
	session.CallLoadTechniqueSP200()
	session.CallStartChannelSP200()
	if _, err := session.CallGetTechPathRslt(); err != nil {
		t.Fatal(err)
	}
	if _, err := session.RunEIS(EISParams{FreqMinHz: 10, FreqMaxHz: 10000, PointsPerDecade: 5}); err != nil {
		t.Fatal(err)
	}

	catalog, err := session.ListMeasurements()
	if err != nil {
		t.Fatal(err)
	}
	if len(catalog) != 2 {
		t.Fatalf("catalog = %+v, want 2 rows", catalog)
	}
	byTech := map[string]MeasurementInfo{}
	for _, row := range catalog {
		byTech[row.Technique] = row
	}
	cv, ok := byTech["CV"]
	if !ok || cv.Points != 201 || cv.Label != "normal" || cv.SizeBytes == 0 {
		t.Errorf("CV row = %+v", cv)
	}
	eis, ok := byTech["PEIS"]
	if !ok || eis.Points != 16 {
		t.Errorf("PEIS row = %+v", eis)
	}
}

func TestAuthGatedControlChannel(t *testing.T) {
	network, err := netsim.PaperTopology()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAgentConfig(t.TempDir())
	cfg.AuthToken = "ornl-access-badge"
	agent, err := NewControlAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	l, err := network.Listen(netsim.HostControlAgent, netsim.PaperPorts.Control)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := agent.ServeControl(l); err != nil {
		t.Fatal(err)
	}
	uri := pyro.URI{Object: JKemObject, Host: netsim.HostControlAgent, Port: netsim.PaperPorts.Control}
	dialer := pyro.Dialer(network.Dialer(netsim.HostDGX))

	// Without the badge: the session either fails to connect or fails
	// on first use.
	if s, err := ConnectSession(uri, dialer, SessionOptions{}); err == nil {
		if _, err := s.JKemStatus(); err == nil {
			t.Error("unauthenticated session worked")
		}
		s.Close()
	}
	// With the badge: full access.
	s, err := ConnectSession(uri, dialer, SessionOptions{Token: "ornl-access-badge"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.JKemStatus(); err != nil {
		t.Errorf("authenticated session failed: %v", err)
	}
}

func TestNameServerResolvesInstruments(t *testing.T) {
	d := deploy(t)
	dialer := pyro.Dialer(d.Network.Dialer(netsim.HostDGX))
	nsProxy, err := pyro.Dial(d.DaemonURI.WithObject(pyro.NSObjectName), dialer, pyro.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer nsProxy.Close()

	for logical, object := range map[string]string{
		"acl.jkem":  JKemObject,
		"acl.sp200": SP200Object,
	} {
		uri, err := pyro.LookupVia(nsProxy, logical)
		if err != nil {
			t.Fatalf("lookup %s: %v", logical, err)
		}
		if uri.Object != object {
			t.Errorf("%s resolved to %q, want %q", logical, uri.Object, object)
		}
	}
	if _, err := pyro.LookupVia(nsProxy, "acl.ghost"); err == nil {
		t.Error("unknown logical name resolved")
	}
}
