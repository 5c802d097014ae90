// Multi_round demonstrates the adaptive, multi-round experiment
// steering the ICE exists to enable: a remote controller sweeps the
// scan rate across rounds, retrieves each voltammogram over the data
// channel, and validates the chemistry in real time by regressing peak
// current against √(scan rate) (Randles–Ševčík) to recover the
// diffusion coefficient of ferrocene — all without touching the lab.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"ice/internal/analysis"
	"ice/internal/core"
	"ice/internal/netsim"
	"ice/internal/units"
)

func main() {
	dir, err := os.MkdirTemp("", "ice-multiround-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dep, err := core.Deploy(dir, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	session, mount, err := dep.ConnectFrom(netsim.HostDGX)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	defer mount.Close()

	// Round 0: fill the cell once and power the potentiostat up.
	if err := core.FillCell(context.Background(), session, core.PaperFillParams(), nil); err != nil {
		log.Fatal(err)
	}
	if err := core.PowerUpSP200(session, core.PaperSystemParams(), nil); err != nil {
		log.Fatal(err)
	}

	ratesMV := []float64{20, 50, 100, 200, 400}
	rates := make([]units.ScanRate, 0, len(ratesMV))
	peaks := make([]units.Current, 0, len(ratesMV))
	fmt.Println("round  rate(mV/s)  anodic peak     ΔEp(mV)  E½(V)")
	for round, mv := range ratesMV {
		params := core.PaperCVParams()
		params.RateMVs = mv
		params.Points = 800
		if err := core.StartCV(session, params, nil); err != nil {
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
		fmt.Printf("%5d  %10.0f  %-14v %7.1f  %.4f\n",
			round+1, mv, s.AnodicPeak, s.PeakSeparation.Millivolts(), s.HalfWave.Volts())
		rates = append(rates, units.MillivoltsPerSecond(mv))
		peaks = append(peaks, s.AnodicPeak)
	}

	d, r2, err := analysis.RandlesSevcikFit(rates, peaks, 1,
		units.SquareCentimeters(0.07), units.Millimolar(2), units.Celsius(25))
	if err != nil {
		log.Fatal(err)
	}
	const trueD = 2.4e-9
	fmt.Printf("\nRandles–Ševčík regression: r² = %.5f\n", r2)
	fmt.Printf("recovered D = %.3g m²/s (simulator truth %.3g, %.1f%% off)\n",
		d, trueD, math.Abs(d-trueD)/trueD*100)

	if _, err := session.CallDisconnectSP200(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npotentiostat disconnected; multi-round campaign complete")
}
