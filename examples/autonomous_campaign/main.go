// Autonomous_campaign runs the paper's future-work vision end to end:
// a remote controller orders the robotic synthesis workstation to
// prepare ferrocene batches at several target concentrations, has the
// mobile robot carry each batch to the electrochemistry workstation,
// runs cyclic voltammetry remotely, retrieves the measurements over
// the data channel, and closes the loop by fitting the calibration
// curve (peak current vs concentration) plus an EIS health check of
// the cell — all without a human in the lab.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"ice/internal/analysis"
	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/potentiostat"
	"ice/internal/units"
)

func main() {
	dir, err := os.MkdirTemp("", "ice-campaign-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dep, err := core.Deploy(dir, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	if err := dep.AttachLab(2024, 0); err != nil {
		log.Fatal(err)
	}
	session, mount, err := dep.ConnectLabFrom(netsim.HostDGX)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	targets := []float64{0.5, 1, 2, 4} // mM
	var concentrations []float64
	var peaks []units.Current

	fmt.Println("autonomous campaign: synthesis → robot transfer → CV → analysis")
	fmt.Println("round  target(mM)  achieved(mM)  anodic peak   robot battery")
	for round, target := range targets {
		dep.Agent.Cell().Drain()

		batch, err := session.SynthesizeFerrocene(target, 8)
		if err != nil {
			log.Fatalf("synthesis: %v", err)
		}
		if _, err := session.TransferBatchToCell(batch.ID); err != nil {
			log.Fatalf("robot transfer: %v", err)
		}

		// Bring the potentiostat up (first round) or reuse it.
		if round == 0 {
			if err := core.PowerUpSP200(session.RemoteSession, core.PaperSystemParams(), nil); err != nil {
				log.Fatal(err)
			}
		}
		params := core.PaperCVParams()
		params.Points = 800
		if err := core.StartCV(session.RemoteSession, params, nil); err != nil {
			log.Fatal(err)
		}
		name, err := session.CallGetTechPathRslt()
		if err != nil {
			log.Fatal(err)
		}
		data, _, _, err := core.RetrieveVerified(context.Background(), mount, name, 10*time.Millisecond, time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		_, s, err := core.AnalyzeCV(data)
		if err != nil {
			log.Fatal(err)
		}
		batt, _ := session.RobotBattery()
		fmt.Printf("%5d  %10.2f  %12.3f  %-12v %8.0f%%\n",
			round+1, target, batch.AchievedMM, s.AnodicPeak, batt*100)
		concentrations = append(concentrations, batch.AchievedMM)
		peaks = append(peaks, s.AnodicPeak)
	}

	// Calibration curve: ip is linear in concentration.
	xs := make([]float64, len(concentrations))
	ys := make([]float64, len(peaks))
	for i := range xs {
		xs[i] = concentrations[i]
		ys[i] = peaks[i].Microamperes()
	}
	slope, intercept, r2, err := analysis.LinearFit(xs, ys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncalibration: ip = %.2f µA/mM · C %+.2f µA  (r² = %.5f)\n", slope, intercept, r2)

	// EIS health check of the final cell state.
	eisFile, err := session.RunEIS(core.EISParams{FreqMinHz: 1, FreqMaxHz: 100_000, PointsPerDecade: 10})
	if err != nil {
		log.Fatal(err)
	}
	eisData, _, err := mount.WaitFor(eisFile, 10*time.Millisecond, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	_, points, err := potentiostat.ParseEIS(bytes.NewReader(eisData))
	if err != nil {
		log.Fatal(err)
	}
	eis, err := analysis.AnalyzeEIS(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cell health:", eis)

	// Send the robot home.
	if _, err := session.RobotMoveTo("dock"); err != nil {
		log.Fatal(err)
	}
	if _, err := session.RobotCharge(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("robot docked and charging; campaign complete")
}
