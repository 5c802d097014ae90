// Workbench regenerates the paper's figures from a single process: it
// deploys the full simulated ICE and writes the artifacts behind each
// figure of the evaluation section.
//
//	workbench -fig 5    # Fig. 5: remote J-Kem steering transcript
//	workbench -fig 6    # Fig. 6: SP200 8-step pipeline transcripts
//	workbench -fig 7    # Fig. 7: I-V profile (CSV + terminal plot)
//	workbench -fig ml   # §4.3.3: ML normality-check report
//	workbench -fig kinetics  # extension: Nicholson ΔEp working surface
//	workbench -fig all  # everything, into -out (default ./artifacts)
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ice/internal/analysis"
	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/echem"
	"ice/internal/ml"
	"ice/internal/netsim"
	"ice/internal/potentiostat"
	"ice/internal/units"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6, 7, ml or all")
	out := flag.String("out", "artifacts", "output directory for artifacts")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	run := func(name string, fn func(out string) error) {
		fmt.Printf("== %s ==\n", name)
		if err := fn(*out); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	switch *fig {
	case "5":
		run("Fig 5", fig5)
	case "6":
		run("Fig 6", fig6)
	case "7":
		run("Fig 7", fig7)
	case "ml":
		run("ML report", mlReport)
	case "kinetics":
		run("Kinetics map", kineticsMap)
	case "eis":
		run("EIS Nyquist", eisNyquist)
	case "all":
		run("Fig 5", fig5)
		run("Fig 6", fig6)
		run("Fig 7", fig7)
		run("ML report", mlReport)
		run("Kinetics map", kineticsMap)
		run("EIS Nyquist", eisNyquist)
	default:
		log.Fatalf("unknown -fig %q", *fig)
	}
	fmt.Println("artifacts written to", *out)
}

// deployed runs fn against a freshly deployed ICE and session.
func deployed(fn func(*core.Deployment, *core.RemoteSession, *datachan.Mount) error) error {
	dir, err := os.MkdirTemp("", "ice-workbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dep, err := core.Deploy(dir, 0)
	if err != nil {
		return err
	}
	defer dep.Close()
	session, m, err := dep.ConnectFrom(netsim.HostDGX)
	if err != nil {
		return err
	}
	defer session.Close()
	defer m.Close()
	return fn(dep, session, m)
}

// fig5 regenerates the remote J-Kem steering transcript.
func fig5(out string) error {
	return deployed(func(dep *core.Deployment, session *core.RemoteSession, _ *datachan.Mount) error {
		var b strings.Builder
		b.WriteString("Fig. 5a — remote steering of J-Kem setup from the DGX notebook\n\n")
		cells := []struct {
			label string
			call  func() (string, error)
		}{
			{"Fill Syringe with liquid from Fraction Collector", nil},
			{"Set_Rate_SyringePump", func() (string, error) { return session.SetRateSyringePump(1, 5.0) }},
			{"Set_Port_SyringePump", func() (string, error) { return session.SetPortSyringePump(1, 8) }},
			{"Set_Vial_FractionCollector", func() (string, error) { return session.SetVialFractionCollector(1, "BOTTOM") }},
			{"Withdraw_SyringePump", func() (string, error) { return session.WithdrawSyringePump(1, 6.0) }},
			{"Send liquid to electrochemical cell", nil},
			{"Set_Port_SyringePump", func() (string, error) { return session.SetPortSyringePump(1, 1) }},
			{"Dispense_SyringePump", func() (string, error) { return session.DispenseSyringePump(1, 6.0) }},
		}
		for _, c := range cells {
			if c.call == nil {
				fmt.Fprintf(&b, "%s\n\n", c.label)
				continue
			}
			outp, err := c.call()
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			fmt.Fprintf(&b, "%s\n%s\n\n", c.label, outp)
		}
		exit, err := session.CallExitJKemAPI()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "PS200_WF.call_Exit_JKem_API()\n%s\n", exit)

		b.WriteString("\nFig. 5b — J-Kem single-board computer responses (control agent console)\n\n")
		for _, line := range dep.Agent.SBC().CommandLog() {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		fmt.Print(b.String())
		return os.WriteFile(filepath.Join(out, "fig5.txt"), []byte(b.String()), 0o644)
	})
}

// fig6 regenerates the SP200 pipeline transcripts.
func fig6(out string) error {
	return deployed(func(dep *core.Deployment, session *core.RemoteSession, _ *datachan.Mount) error {
		// Fill first so the run is normal.
		if err := core.FillCell(context.Background(), session, core.PaperFillParams(), nil); err != nil {
			return err
		}
		var b strings.Builder
		b.WriteString("Fig. 6a — SP200 working pipeline from the DGX notebook\n\n")
		params := core.PaperCVParams()
		steps := []struct {
			label string
			call  func() (string, error)
		}{
			{"PS200_WF.call_Initialize_SP200_API(SP200_config_params)", func() (string, error) { return session.CallInitializeSP200API(core.PaperSystemParams()) }},
			{"PS200_WF.call_Connect_SP200()", session.CallConnectSP200},
			{"PS200_WF.call_Load_Firmware_SP200()", session.CallLoadFirmwareSP200},
			{"PS200_WF.call_Initialize_CV_Tech_SP200(SP200_Technique_params)", func() (string, error) { return session.CallInitializeCVTechSP200(params) }},
			{"PS200_WF.call_Load_Technique_SP200()", session.CallLoadTechniqueSP200},
			{"PS200_WF.call_Start_Channel_SP200()", session.CallStartChannelSP200},
			{"PS200_WF.call_Get_Tech_Path_Rslt()", session.CallGetTechPathRslt},
		}
		for n, s := range steps {
			outp, err := s.call()
			if err != nil {
				return fmt.Errorf("step %d: %w", n+1, err)
			}
			fmt.Fprintf(&b, "(%d) %s\n    %s\n\n", n+1, s.label, outp)
		}
		b.WriteString("Fig. 6b — control agent responses (Pyro server console)\n\n")
		for _, line := range dep.Agent.SP200().EventLog() {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		fmt.Print(b.String())
		return os.WriteFile(filepath.Join(out, "fig6.txt"), []byte(b.String()), 0o644)
	})
}

// fig7 regenerates the I-V profile.
func fig7(out string) error {
	return deployed(func(dep *core.Deployment, session *core.RemoteSession, m *datachan.Mount) error {
		cfg := core.PaperCVWorkflowConfig()
		nb, outcome := core.BuildCVWorkflow(session, m, cfg)
		if err := nb.Execute(context.Background()); err != nil {
			return err
		}
		e, i := analysis.FromRecords(outcome.Records)
		var csv bytes.Buffer
		if err := analysis.WriteCSV(&csv, e, i); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(out, "fig7.csv"), csv.Bytes(), 0o644); err != nil {
			return err
		}
		plot := analysis.ASCIIPlot(e, i, 70, 22) + "\n" + outcome.Summary.String() + "\n"
		fmt.Print(plot)
		return os.WriteFile(filepath.Join(out, "fig7.txt"), []byte(plot), 0o644)
	})
}

// mlReport regenerates the §4.3.3 classification report.
func mlReport(out string) error {
	clf, acc, err := ml.TrainNormalityClassifier(ml.GenerateConfig{PerClass: 20, Samples: 400, BaseSeed: 7})
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "§4.3.3 — ML normality check (GPR features + ensemble of trees)\n")
	fmt.Fprintf(&b, "held-out accuracy: %.1f%% (chance 33.3%%)\n\n", acc*100)

	// Fresh-run classification through the full ICE.
	b.WriteString("fresh cross-facility runs:\n")
	conditions := []struct {
		label string
		brk   func(*core.Deployment)
		want  int
	}{
		{"normal", nil, ml.ClassNormal},
		{"disconnected electrode", func(d *core.Deployment) { d.Agent.Cell().SetElectrodesConnected(false) }, ml.ClassDisconnected},
	}
	for _, cond := range conditions {
		err := func() error {
			dir, err := os.MkdirTemp("", "ice-ml-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			dep, err := core.Deploy(dir, 0)
			if err != nil {
				return err
			}
			defer dep.Close()
			if cond.brk != nil {
				cond.brk(dep)
			}
			session, m, err := dep.ConnectFrom(netsim.HostDGX)
			if err != nil {
				return err
			}
			defer session.Close()
			defer m.Close()
			cfg := core.PaperCVWorkflowConfig()
			cfg.CV.Points = 400
			cfg.Classifier = clf
			nb, outcome := core.BuildCVWorkflow(session, m, cfg)
			if err := nb.Execute(context.Background()); err != nil {
				return err
			}
			mark := "✓"
			if outcome.Class != cond.want {
				mark = "✗"
			}
			fmt.Fprintf(&b, "  %-24s → %-36s %s\n", cond.label, outcome.ClassName, mark)
			return nil
		}()
		if err != nil {
			return fmt.Errorf("%s: %w", cond.label, err)
		}
	}
	fmt.Print(b.String())
	return os.WriteFile(filepath.Join(out, "ml_report.txt"), []byte(b.String()), 0o644)
}

// kineticsMap writes the extension figure: peak separation versus scan
// rate for electron-transfer rate constants spanning reversible to
// quasi-reversible behaviour (the Nicholson working surface), computed
// directly from the physics engine.
func kineticsMap(out string) error {
	rates := []float64{20, 50, 100, 200, 400} // mV/s
	k0s := []float64{1e-2, 1e-4, 2e-5, 5e-6}  // m/s

	var b strings.Builder
	b.WriteString("k0_m_per_s,scan_rate_mV_s,delta_Ep_mV,ipa_uA\n")
	var pretty strings.Builder
	fmt.Fprintf(&pretty, "%-10s", "k0\\v(mV/s)")
	for _, v := range rates {
		fmt.Fprintf(&pretty, "%8.0f", v)
	}
	pretty.WriteByte('\n')

	for _, k0 := range k0s {
		fmt.Fprintf(&pretty, "%-10.0e", k0)
		for _, rate := range rates {
			cfg := echem.DefaultCell()
			cfg.NoiseRMS = 0
			cfg.UncompensatedResistance = 0
			cfg.DoubleLayerCapacitance = 0
			cfg.Solution.Analyte.RateConstant = k0
			prog := echem.CVProgram{
				Ei: units.Volts(0.05), E1: units.Volts(0.8), E2: units.Volts(0.05), Ef: units.Volts(0.05),
				Rate: units.MillivoltsPerSecond(rate), Cycles: 1,
			}
			w, err := prog.Waveform()
			if err != nil {
				return err
			}
			vg, err := echem.Simulate(cfg, w, 1200)
			if err != nil {
				return err
			}
			e, i := vg.Potentials(), vg.Currents()
			s, err := analysis.AnalyzeCV(e, i, units.Celsius(25))
			if err != nil {
				return err
			}
			dEp := s.PeakSeparation.Millivolts()
			fmt.Fprintf(&b, "%g,%g,%.2f,%.3f\n", k0, rate, dEp, s.AnodicPeak.Microamperes())
			fmt.Fprintf(&pretty, "%8.1f", dEp)
		}
		pretty.WriteByte('\n')
	}
	fmt.Print("ΔEp (mV) by rate constant and scan rate:\n" + pretty.String())
	if err := os.WriteFile(filepath.Join(out, "kinetics_map.csv"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "kinetics_map.txt"), []byte(pretty.String()), 0o644)
}

// eisNyquist runs a remote impedance sweep through the full ICE and
// renders the Nyquist plot (−Im Z vs Re Z) — the extension-technique
// artifact.
func eisNyquist(out string) error {
	return deployed(func(dep *core.Deployment, session *core.RemoteSession, m *datachan.Mount) error {
		if err := core.FillCell(context.Background(), session, core.PaperFillParams(), nil); err != nil {
			return err
		}
		if err := core.PowerUpSP200(session, core.PaperSystemParams(), nil); err != nil {
			return err
		}
		name, err := session.RunEIS(core.EISParams{FreqMinHz: 0.1, FreqMaxHz: 1_000_000, PointsPerDecade: 10})
		if err != nil {
			return err
		}
		data, _, err := m.WaitFor(name, 10*time.Millisecond, time.Minute)
		if err != nil {
			return err
		}
		label, points, err := potentiostat.ParseEIS(bytes.NewReader(data))
		if err != nil {
			return err
		}
		re := make([]float64, len(points))
		negIm := make([]float64, len(points))
		var csv strings.Builder
		csv.WriteString("freq_hz,re_ohm,neg_im_ohm\n")
		for i, p := range points {
			re[i] = p.Zre
			negIm[i] = -p.Zim
			fmt.Fprintf(&csv, "%.6e,%.6e,%.6e\n", p.Frequency, p.Zre, -p.Zim)
		}
		summary, err := analysis.AnalyzeEIS(points)
		if err != nil {
			return err
		}
		plot := fmt.Sprintf("Nyquist plot of %s (condition %s)\n\n%s\n%s\n",
			name, label, analysis.ASCIIPlotXY(re, negIm, 70, 20, "Re Z/Ω", "−Im Z/Ω"), summary)
		fmt.Print(plot)
		if err := os.WriteFile(filepath.Join(out, "eis_nyquist.csv"), []byte(csv.String()), 0o644); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(out, "eis_nyquist.txt"), []byte(plot), 0o644)
	})
}
