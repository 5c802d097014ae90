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
// BENCH_wire.json — the control-plane wire-protocol record:
//
//   - RPC framing: pipelined small calls over a bandwidth-limited
//     netsim WAN link with the session pinned to the v1 JSON framing
//     vs the v2 binary framing (throughput, bytes and allocations per
//     call);
//   - streaming analysis: the paper CV acquired with real pacing,
//     comparing how long after instrument release the normality
//     verdict lands when analysis streams during acquisition vs the
//     classic retrieve-then-analyze path.
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
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ice/internal/campaign"
	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/ml"
	"ice/internal/netsim"
	"ice/internal/pyro"
	"ice/internal/telemetry"
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

type wireRPCResult struct {
	WireVersion  int     `json:"wire_version"`
	CallsPerSec  float64 `json:"calls_per_sec"`
	BytesPerCall float64 `json:"bytes_per_call"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	SpeedupVsV1  float64 `json:"speedup_vs_v1"`
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
	RPC        []wireRPCResult `json:"rpc"`
	Streaming  streamingResult `json:"streaming"`
}

func main() {
	out := flag.String("o", "BENCH_parallel.json", "parallelism report path ('' skips)")
	wireOut := flag.String("wire-o", "", "wire-protocol report path ('' skips)")
	quick := flag.Bool("quick", false, "fewer repetitions and smaller transfers (CI smoke)")
	minWireSpeedup := flag.Float64("min-wire-speedup", 0, "fail unless v2 RPC throughput beats v1 by this factor (0 disables)")
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
		if wrep.RPC, err = measureWireRPC(*quick); err != nil {
			log.Fatalf("wire rpc: %v", err)
		}
		if wrep.Streaming, err = measureStreaming(*quick); err != nil {
			log.Fatalf("streaming: %v", err)
		}
		writeReport(*wireOut, wrep)
		if *minWireSpeedup > 0 {
			v2 := wrep.RPC[len(wrep.RPC)-1]
			if v2.SpeedupVsV1 < *minWireSpeedup {
				log.Fatalf("wire regression: v2 speedup %.2fx < required %.2fx", v2.SpeedupVsV1, *minWireSpeedup)
			}
			if v1 := wrep.RPC[0]; v2.AllocsPerOp >= v1.AllocsPerOp {
				log.Fatalf("wire regression: v2 allocs/op %.1f not below v1 %.1f", v2.AllocsPerOp, v1.AllocsPerOp)
			}
		}
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

// wireBench is the RPC target for the framing benchmark.
type wireBench struct{}

func (wireBench) Add(a, b int) int { return a + b }

// measureWireRPC drives pipelined small calls over a netsim WAN whose
// bottleneck is a 64 kbit/s link — the regime where frame size, not
// propagation delay or local CPU, sets the call rate (the paper's
// instrument links are fast, but a saturated control channel degrades
// to exactly this regime, and it is where framing overhead is the
// measurable quantity) — once pinned to the v1 JSON framing and once
// on the v2 binary framing. The 2 ms propagation delay is hidden by
// the four pipelined workers either way. Bytes per call come from the
// client's pyro.wire.* counters; allocations per op are the
// whole-process malloc delta (client and in-process daemon both
// counted) divided by calls.
func measureWireRPC(quick bool) ([]wireRPCResult, error) {
	const workers = 4
	calls := 250
	if quick {
		calls = 80
	}

	run := func(pin int) (wireRPCResult, error) {
		network := netsim.New()
		if err := network.AddHub("wan", 2*time.Millisecond, 8e3); err != nil {
			return wireRPCResult{}, err
		}
		if err := network.AddHost("server", "wan"); err != nil {
			return wireRPCResult{}, err
		}
		if err := network.AddHost("client", "wan"); err != nil {
			return wireRPCResult{}, err
		}
		l, err := network.Listen("server", netsim.PaperPorts.Control)
		if err != nil {
			return wireRPCResult{}, err
		}
		d := pyro.NewDaemon(l)
		d.SetAdvertised("server", netsim.PaperPorts.Control)
		d.MaxWireVersion = pin
		uri, err := d.Register("Bench", wireBench{})
		if err != nil {
			return wireRPCResult{}, err
		}
		go d.RequestLoop()
		defer d.Close()

		metrics := telemetry.NewCollector()
		proxy, err := pyro.DialConfigured(uri, func(addr string) (net.Conn, error) {
			return network.Dial("client", addr)
		}, pyro.DialConfig{MaxWireVersion: pin, Metrics: metrics})
		if err != nil {
			return wireRPCResult{}, err
		}
		defer proxy.Close()

		call := func() error {
			var out int
			if err := proxy.CallInto(&out, "Add", 2, 3); err != nil {
				return err
			}
			if out != 5 {
				return fmt.Errorf("Add(2,3) = %d", out)
			}
			return nil
		}
		for i := 0; i < 32; i++ { // warmup: negotiation + pools
			if err := call(); err != nil {
				return wireRPCResult{}, err
			}
		}

		bytesBase := metrics.CounterValue("pyro.wire.bytes_in") + metrics.CounterValue("pyro.wire.bytes_out")
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if err := call(); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		select {
		case err := <-errCh:
			return wireRPCResult{}, err
		default:
		}

		total := float64(workers * calls)
		wireBytes := metrics.CounterValue("pyro.wire.bytes_in") + metrics.CounterValue("pyro.wire.bytes_out") - bytesBase
		return wireRPCResult{
			WireVersion:  proxy.WireVersion(),
			CallsPerSec:  round2(total / elapsed.Seconds()),
			BytesPerCall: round2(float64(wireBytes) / total),
			AllocsPerOp:  round2(float64(m1.Mallocs-m0.Mallocs) / total),
		}, nil
	}

	v1, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("v1: %w", err)
	}
	v2, err := run(0)
	if err != nil {
		return nil, fmt.Errorf("v2: %w", err)
	}
	if v1.WireVersion != 1 || v2.WireVersion != 2 {
		return nil, fmt.Errorf("negotiated versions %d and %d, want 1 and 2", v1.WireVersion, v2.WireVersion)
	}
	v1.SpeedupVsV1 = 1
	v2.SpeedupVsV1 = round2(v2.CallsPerSec / v1.CallsPerSec)
	return []wireRPCResult{v1, v2}, nil
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
