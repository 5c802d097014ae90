// Benchparallel measures the fleet-scale parallelism work end to end
// and writes the numbers to BENCH_parallel.json — the machine-readable
// record the repo's experiment table references:
//
//   - data-channel pipelining: whole-file throughput over the netsim
//     WAN at readahead windows 1 (strict request/reply), 4 and 8;
//   - campaign fleet: N campaigns back-to-back vs the same N run
//     concurrently over one deployment (overlap, not cores);
//   - EOT training: Ensemble.Fit wall time across worker counts.
//
// Numbers are environment-honest: GOMAXPROCS is recorded, and on a
// single-core runner the CPU-bound Fit rows show handoff overhead
// rather than speedup, while the latency-bound rows (pipelining,
// fleet) still show their wins.
//
// With -wire-o it additionally (or, with an empty -o, exclusively) writes
// BENCH_wire.json — the streaming-analysis record: the paper CV
// acquired with real pacing, comparing how long after instrument
// release the normality verdict lands when analysis streams during
// acquisition vs the classic retrieve-then-analyze path.
//
// Typical runs:
//
//	go run ./cmd/benchparallel -o BENCH_parallel.json
//	go run ./cmd/benchparallel -quick
//	go run ./cmd/benchparallel -o '' -wire-o BENCH_wire.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ice/internal/campaign"
	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/netsim"
)

type readaheadResult struct {
	Window      int     `json:"window"`
	MBPerSec    float64 `json:"mb_per_sec"`
	SpeedupVsW1 float64 `json:"speedup_vs_window1"`
}

type fleetResult struct {
	Cells         int     `json:"cells"`
	SerialSeconds float64 `json:"serial_seconds"`
	FleetSeconds  float64 `json:"fleet_seconds"`
	Speedup       float64 `json:"speedup"`
}

type fitResult struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup_vs_serial"`
}

type report struct {
	GOMAXPROCS  int               `json:"gomaxprocs"`
	GoVersion   string            `json:"go_version"`
	Quick       bool              `json:"quick"`
	Readahead   []readaheadResult `json:"readahead"`
	Fleet       fleetResult       `json:"fleet"`
	EnsembleFit []fitResult       `json:"ensemble_fit"`
}

type streamingResult struct {
	TimeScale          float64 `json:"time_scale"`
	AcquisitionSeconds float64 `json:"acquisition_seconds"`
	StreamLagSeconds   float64 `json:"stream_verdict_lag_seconds"`
	StreamLagFraction  float64 `json:"stream_verdict_lag_fraction"`
	ClassicLagSeconds  float64 `json:"classic_verdict_lag_seconds"`
	StreamEvals        int     `json:"stream_evals"`
}

type wireReport struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Quick      bool            `json:"quick"`
	Streaming  streamingResult `json:"streaming"`
}

func main() {
	out := flag.String("o", "BENCH_parallel.json", "parallelism report path ('' skips)")
	wireOut := flag.String("wire-o", "", "wire-protocol report path ('' skips)")
	quick := flag.Bool("quick", false, "fewer repetitions and smaller transfers (CI smoke)")
	maxStreamLag := flag.Float64("max-stream-lag", 0, "fail if the streamed verdict lags instrument release by more than this fraction of the acquisition (0 disables)")
	flag.Parse()

	if *out != "" {
		rep := report{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Quick:      *quick,
		}
		var err error
		if rep.Readahead, err = measureReadahead(*quick); err != nil {
			log.Fatalf("readahead: %v", err)
		}
		if rep.Fleet, err = measureFleet(*quick); err != nil {
			log.Fatalf("fleet: %v", err)
		}
		if rep.EnsembleFit, err = measureFit(*quick); err != nil {
			log.Fatalf("ensemble fit: %v", err)
		}
		writeReport(*out, rep)
	}

	if *wireOut != "" {
		wrep := wireReport{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Quick:      *quick,
		}
		var err error
		if wrep.Streaming, err = measureStreaming(*quick); err != nil {
			log.Fatalf("streaming: %v", err)
		}
		writeReport(*wireOut, wrep)
		if *maxStreamLag > 0 && wrep.Streaming.StreamLagFraction > *maxStreamLag {
			log.Fatalf("streaming regression: verdict lag %.1f%% of acquisition > allowed %.1f%%",
				100*wrep.Streaming.StreamLagFraction, 100**maxStreamLag)
		}
	}
}

func writeReport(path string, rep any) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n%s", path, data)
}

// measureStreaming runs the paper CV with real acquisition pacing
// twice — analysis streamed during acquisition, then the classic
// retrieve-then-analyze path — and reports how long after instrument
// release the normality verdict landed in each case.
func measureStreaming(quick bool) (streamingResult, error) {
	timeScale := 0.02
	if quick {
		timeScale = 0.01
	}
	clf, acc, err := ml.TrainNormalityClassifier(ml.GenerateConfig{PerClass: 8, Samples: 250, BaseSeed: 7})
	if err != nil {
		return streamingResult{}, err
	}
	if acc < 0.6 {
		return streamingResult{}, fmt.Errorf("classifier accuracy %v too low to benchmark with", acc)
	}

	run := func(stream bool) (*core.CVOutcome, time.Duration, error) {
		dir, err := os.MkdirTemp("", "ice-benchwire-*")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		dep, err := core.Deploy(dir, timeScale)
		if err != nil {
			return nil, 0, err
		}
		defer dep.Close()
		session, mount, err := dep.ConnectFrom(netsim.HostDGX)
		if err != nil {
			return nil, 0, err
		}
		defer session.Close()
		defer mount.Close()
		cfg := core.PaperCVWorkflowConfig()
		cfg.CV.Points = 400
		cfg.Classifier = clf
		cfg.StreamAnalysis = stream
		nb, outcome := core.BuildCVWorkflow(session, mount, cfg)
		start := time.Now()
		if err := nb.Execute(context.Background()); err != nil {
			return nil, 0, err
		}
		if stream && !outcome.Streamed {
			return nil, 0, fmt.Errorf("streaming path did not engage")
		}
		// The instrument phase: workflow start to instrument release
		// (cell prep and bring-up are scaled by the same factor).
		return outcome, outcome.AcquireEnd.Sub(start), nil
	}

	streamed, acquisition, err := run(true)
	if err != nil {
		return streamingResult{}, fmt.Errorf("streamed run: %w", err)
	}
	classic, _, err := run(false)
	if err != nil {
		return streamingResult{}, fmt.Errorf("classic run: %w", err)
	}

	streamLag := streamed.VerdictReady.Sub(streamed.AcquireEnd).Seconds()
	return streamingResult{
		TimeScale:          timeScale,
		AcquisitionSeconds: round3(acquisition.Seconds()),
		StreamLagSeconds:   round3(streamLag),
		StreamLagFraction:  round3(streamLag / acquisition.Seconds()),
		ClassicLagSeconds:  round3(classic.VerdictReady.Sub(classic.AcquireEnd).Seconds()),
		StreamEvals:        streamed.StreamEvals,
	}, nil
}

// measureReadahead times the same WAN retrieval at increasing windows.
func measureReadahead(quick bool) ([]readaheadResult, error) {
	size := 4 << 20
	reps := 3
	if quick {
		size = 1 << 20
		reps = 1
	}
	dir, err := os.MkdirTemp("", "ice-benchparallel-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "bulk.mpt"), bytes.Repeat([]byte{0x42}, size), 0o644); err != nil {
		return nil, err
	}

	var results []readaheadResult
	base := 0.0
	for _, window := range []int{1, 4, 8} {
		network, err := netsim.PaperTopology()
		if err != nil {
			return nil, err
		}
		l, err := network.Listen(netsim.HostControlAgent, netsim.PaperPorts.Data)
		if err != nil {
			return nil, err
		}
		exp := datachan.NewExport(dir, l)
		go exp.Serve()
		conn, err := network.Dial(netsim.HostDGX, fmt.Sprintf("%s:%d", netsim.HostControlAgent, netsim.PaperPorts.Data))
		if err != nil {
			exp.Close()
			return nil, err
		}
		mount := datachan.NewMount(conn)
		mount.SetReadahead(window)
		mount.SetChunkBytes(64 << 10)

		best := math.Inf(1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			data, err := mount.ReadAll("bulk.mpt")
			if err != nil {
				mount.Close()
				exp.Close()
				return nil, err
			}
			if len(data) != size {
				mount.Close()
				exp.Close()
				return nil, fmt.Errorf("short read: %d of %d bytes", len(data), size)
			}
			if sec := time.Since(start).Seconds(); sec < best {
				best = sec
			}
		}
		mount.Close()
		exp.Close()

		mbps := float64(size) / (1 << 20) / best
		if window == 1 {
			base = mbps
		}
		results = append(results, readaheadResult{
			Window:      window,
			MBPerSec:    round2(mbps),
			SpeedupVsW1: round2(mbps / base),
		})
	}
	return results, nil
}

// measureFleet times N single-round campaigns sequentially, then the
// same N as a concurrent fleet over one deployment.
func measureFleet(quick bool) (fleetResult, error) {
	cells := 3
	points := 400
	if quick {
		cells = 2
		points = 300
	}
	run := func(workers int) (float64, error) {
		dir, err := os.MkdirTemp("", "ice-benchfleet-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		dep, err := core.Deploy(dir, 0)
		if err != nil {
			return 0, err
		}
		defer dep.Close()
		if err := dep.AttachLab(1, 0); err != nil {
			return 0, err
		}
		planners := make([]campaign.Planner, cells)
		for i := range planners {
			planners[i] = campaign.ScanRateLadder{RatesMVs: []float64{50}, ConcentrationMM: 2}
		}
		fleet, cleanup, err := campaign.ConnectFleet(dep, netsim.HostDGX, planners)
		if err != nil {
			return 0, err
		}
		defer cleanup()
		for _, cell := range fleet.Cells {
			cell.Executor.CVPoints = points
		}
		fleet.Workers = workers
		start := time.Now()
		results, err := fleet.Run(context.Background())
		if err != nil {
			return 0, err
		}
		for _, res := range results {
			if res.Err != nil {
				return 0, fmt.Errorf("%s: %w", res.Name, res.Err)
			}
		}
		return time.Since(start).Seconds(), nil
	}

	serial, err := run(1)
	if err != nil {
		return fleetResult{}, err
	}
	concurrent, err := run(cells)
	if err != nil {
		return fleetResult{}, err
	}
	return fleetResult{
		Cells:         cells,
		SerialSeconds: round3(serial),
		FleetSeconds:  round3(concurrent),
		Speedup:       round2(serial / concurrent),
	}, nil
}

// measureFit times deterministic EOT training across worker counts.
func measureFit(quick bool) ([]fitResult, error) {
	samples, trees := 300, 30
	reps := 3
	if quick {
		samples, trees = 150, 15
		reps = 1
	}
	x := make([][]float64, samples)
	y := make([]int, samples)
	for i := range x {
		row := make([]float64, 49)
		for j := range row {
			row[j] = math.Sin(float64(i*7+j*13)) + float64(i%3)
		}
		x[i] = row
		y[i] = i % 3
	}

	var results []fitResult
	base := 0.0
	for _, workers := range []int{1, 2, 4} {
		best := math.Inf(1)
		for r := 0; r < reps; r++ {
			e := &ml.Ensemble{Trees: trees, MaxDepth: 8, MinLeaf: 1, Seed: 5, Workers: workers}
			start := time.Now()
			if err := e.Fit(x, y); err != nil {
				return nil, err
			}
			if sec := time.Since(start).Seconds(); sec < best {
				best = sec
			}
		}
		if workers == 1 {
			base = best
		}
		results = append(results, fitResult{
			Workers: workers,
			Seconds: round3(best),
			Speedup: round2(base / best),
		})
	}
	return results, nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
