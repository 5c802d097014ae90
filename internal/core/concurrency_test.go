package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ice/internal/datachan"
	"ice/internal/netsim"
)

// TestConcurrentRemoteJKemCalls hammers the J-Kem object from many
// goroutines sharing one pipelined session: the serial transaction
// layer must serialise correctly so no response is misrouted.
func TestConcurrentRemoteJKemCalls(t *testing.T) {
	d := deploy(t)
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				// Mix reads and writes: pH reads have a fixed answer,
				// temperature echoes what was last set by anyone.
				ph, err := session.ReadPH(1)
				if err != nil {
					errs <- err
					return
				}
				if ph != 7.0 {
					errs <- fmt.Errorf("pH misrouted: got %v", ph)
					return
				}
				if _, err := session.SetVialFractionCollector(1, "MIDDLE"); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTwoRemoteUsersShareTheWorkstation connects two independent
// sessions (two scientists on the DGX) and interleaves their commands.
func TestTwoRemoteUsersShareTheWorkstation(t *testing.T) {
	d := deploy(t)
	s1, m1, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	defer m1.Close()
	s2, m2, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	defer m2.Close()

	// User 1 fills the cell; user 2 watches the same physical state.
	if _, err := s1.SetPortSyringePump(1, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.WithdrawSyringePump(1, 6.0); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SetPortSyringePump(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.DispenseSyringePump(1, 6.0); err != nil {
		t.Fatal(err)
	}
	status, err := s2.JKemStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "6 mL") {
		t.Errorf("user 2 sees %q, want the 6 mL fill", status)
	}
	// Both data mounts list the same share.
	f1, err := m1.List()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != len(f2) {
		t.Errorf("mounts disagree: %d vs %d files", len(f1), len(f2))
	}
}

// TestStreamingAcquisitionVisibleOnDataChannel runs a paced
// acquisition and confirms the measurement file grows on the remote
// mount while the channel is still busy — the paper's "transfer occurs
// during the execution" property.
func TestStreamingAcquisitionVisibleOnDataChannel(t *testing.T) {
	// TimeScale 0.02: the 30 s demo CV takes 600 ms wall time.
	d, err := Deploy(t.TempDir(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	for _, step := range []func() (string, error){
		func() (string, error) { return session.SetPortSyringePump(1, 8) },
		func() (string, error) { return session.WithdrawSyringePump(1, 6.0) },
		func() (string, error) { return session.SetPortSyringePump(1, 1) },
		func() (string, error) { return session.DispenseSyringePump(1, 6.0) },
		func() (string, error) { return session.CallInitializeSP200API(PaperSystemParams()) },
		session.CallConnectSP200,
		session.CallLoadFirmwareSP200,
	} {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	params := PaperCVParams()
	params.Points = 1200
	if _, err := session.CallInitializeCVTechSP200(params); err != nil {
		t.Fatal(err)
	}
	if _, err := session.CallLoadTechniqueSP200(); err != nil {
		t.Fatal(err)
	}

	w := mount.Watch(20 * time.Millisecond)
	defer w.Stop()
	if _, err := session.CallStartChannelSP200(); err != nil {
		t.Fatal(err)
	}

	// Expect a Created followed by at least one Modified while the
	// run is still going.
	sawCreated := false
	sawGrowth := false
	deadline := time.After(10 * time.Second)
	for !sawGrowth {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("watcher died: %v", w.Err())
			}
			switch ev.Type {
			case datachan.Created:
				sawCreated = true
			case datachan.Modified:
				if sawCreated {
					sawGrowth = true
				}
			}
		case <-deadline:
			t.Fatal("never saw the measurement file grow during acquisition")
		}
	}
	// Finish the run cleanly.
	name, err := session.CallGetTechPathRslt()
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := mount.WaitFor(name, 20*time.Millisecond, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty measurement file")
	}
}

// TestStatusPollsDuringAcquisitionWait exploits RPC pipelining: while
// one goroutine blocks in CallGetTechPathRslt (a long acquisition),
// another polls BusySP200 and J-Kem status over the same proxies — the
// real-time monitoring pattern the notebook uses.
func TestStatusPollsDuringAcquisitionWait(t *testing.T) {
	d, err := Deploy(t.TempDir(), 0.01) // 30 s CV → 300 ms wall
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	for _, step := range []func() (string, error){
		func() (string, error) { return session.SetPortSyringePump(1, 8) },
		func() (string, error) { return session.WithdrawSyringePump(1, 6.0) },
		func() (string, error) { return session.SetPortSyringePump(1, 1) },
		func() (string, error) { return session.DispenseSyringePump(1, 6.0) },
		func() (string, error) { return session.CallInitializeSP200API(PaperSystemParams()) },
		session.CallConnectSP200,
		session.CallLoadFirmwareSP200,
	} {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	params := PaperCVParams()
	params.Points = 600
	if _, err := session.CallInitializeCVTechSP200(params); err != nil {
		t.Fatal(err)
	}
	if _, err := session.CallLoadTechniqueSP200(); err != nil {
		t.Fatal(err)
	}
	if _, err := session.CallStartChannelSP200(); err != nil {
		t.Fatal(err)
	}

	waitDone := make(chan error, 1)
	go func() {
		_, err := session.CallGetTechPathRslt()
		waitDone <- err
	}()

	// Poll while the wait is blocked; each poll must return quickly.
	polled := 0
	for {
		select {
		case err := <-waitDone:
			if err != nil {
				t.Fatal(err)
			}
			if polled == 0 {
				t.Error("acquisition finished before any status poll landed")
			}
			return
		default:
		}
		start := time.Now()
		if _, err := session.SP200Status(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("status poll took %v while acquisition in flight", d)
		}
		polled++
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRemoteStirringSwitchesToHydrodynamicRegime stirs the cell over
// the control channel and verifies the next sweep is sigmoidal at the
// convective limiting current instead of duck-shaped — the full
// coupling chain J-Kem stirrer → cell state → physics → measurement.
func TestRemoteStirringSwitchesToHydrodynamicRegime(t *testing.T) {
	d := deploy(t)
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	for _, step := range []func() (string, error){
		func() (string, error) { return session.SetPortSyringePump(1, 8) },
		func() (string, error) { return session.WithdrawSyringePump(1, 6.0) },
		func() (string, error) { return session.SetPortSyringePump(1, 1) },
		func() (string, error) { return session.DispenseSyringePump(1, 6.0) },
		func() (string, error) { return session.SetStirring(1, true) },
		func() (string, error) { return session.CallInitializeSP200API(PaperSystemParams()) },
		session.CallConnectSP200,
		session.CallLoadFirmwareSP200,
	} {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	params := PaperCVParams()
	params.Points = 800
	session.CallInitializeCVTechSP200(params)
	session.CallLoadTechniqueSP200()
	session.CallStartChannelSP200()
	name, err := session.CallGetTechPathRslt()
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := mount.WaitFor(name, 5*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := parseMPT(data)
	if err != nil {
		t.Fatal(err)
	}
	// Expected limiting current for a 25 µm layer at 2 mM.
	wantIL := 96485.33212 * 7e-6 * 2.4e-9 * 2 / 25e-6
	max := 0.0
	for _, r := range mf.Records {
		if r.I > max {
			max = r.I
		}
	}
	if math.Abs(max-wantIL)/wantIL > 0.1 {
		t.Errorf("stirred max current %v vs i_L %v", max, wantIL)
	}
	// The forward-sweep apex current equals the vertex-region current
	// (plateau), unlike the unstirred duck where the peak sits mid-sweep.
	apexIdx := 0
	for i, r := range mf.Records {
		if r.Ewe > mf.Records[apexIdx].Ewe {
			apexIdx = i
		}
	}
	atVertex := mf.Records[apexIdx].I
	if math.Abs(atVertex-max)/max > 0.1 {
		t.Errorf("vertex current %v well below max %v: not a plateau", atVertex, max)
	}
}

// TestRemoteAbortDuringAcquisition exercises the emergency stop: a
// pipelined AbortSP200 lands while GetTechPathRslt is blocked.
func TestRemoteAbortDuringAcquisition(t *testing.T) {
	d, err := Deploy(t.TempDir(), 0.05) // 30 s CV → 1.5 s wall
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	session, mount, err := d.ConnectFrom(netsim.HostDGX)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	for _, step := range []func() (string, error){
		func() (string, error) { return session.SetPortSyringePump(1, 8) },
		func() (string, error) { return session.WithdrawSyringePump(1, 6.0) },
		func() (string, error) { return session.SetPortSyringePump(1, 1) },
		func() (string, error) { return session.DispenseSyringePump(1, 6.0) },
		func() (string, error) { return session.CallInitializeSP200API(PaperSystemParams()) },
		session.CallConnectSP200,
		session.CallLoadFirmwareSP200,
	} {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	params := PaperCVParams()
	params.Points = 1200
	session.CallInitializeCVTechSP200(params)
	session.CallLoadTechniqueSP200()
	session.CallStartChannelSP200()

	waitErr := make(chan error, 1)
	go func() {
		_, err := session.CallGetTechPathRslt()
		waitErr <- err
	}()
	time.Sleep(200 * time.Millisecond)
	if out, err := session.AbortSP200(); err != nil || out != "Abort requested" {
		t.Fatalf("AbortSP200 = %q, %v", out, err)
	}
	select {
	case err := <-waitErr:
		if err == nil || !strings.Contains(err.Error(), "abort") {
			t.Errorf("wait after abort = %v, want abort error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait never returned after abort")
	}
	// The partial file is on the data channel.
	files, err := mount.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || files[0].Size == 0 {
		t.Error("no partial measurement on the data channel after abort")
	}
}

// TestRemoteTemperatureChangesChemistry couples the J-Kem temperature
// controller to the electrochemistry: heating the cell via the remote
// API widens the reversible peak separation (ΔEp ∝ T).
func TestRemoteTemperatureChangesChemistry(t *testing.T) {
	peakSepAt := func(t25 float64) float64 {
		d := deploy(t)
		session, mount, err := d.ConnectFrom(netsim.HostDGX)
		if err != nil {
			t.Fatal(err)
		}
		defer session.Close()
		defer mount.Close()
		if _, err := session.SetTemperature(1, t25); err != nil {
			t.Fatal(err)
		}
		cfg := PaperCVWorkflowConfig()
		cfg.CV.Points = 1000
		nb, outcome := BuildCVWorkflow(session, mount, cfg)
		if err := nb.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		return outcome.Summary.PeakSeparation.Millivolts()
	}
	cold := peakSepAt(10)
	hot := peakSepAt(60)
	// ΔEp ∝ T: (60+273)/(10+273) ≈ 1.18. Grid discretisation adds
	// a few mV of quantisation, so only require a clear increase.
	if hot <= cold {
		t.Errorf("ΔEp(60°C) = %.1f mV not above ΔEp(10°C) = %.1f mV", hot, cold)
	}
	ratio := hot / cold
	if math.Abs(ratio-1.18) > 0.15 {
		t.Logf("ΔEp ratio = %.3f (theory 1.18) — within grid tolerance", ratio)
	}
}
