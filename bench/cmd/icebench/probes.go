package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ice/internal/analysis"
	"ice/internal/core"
	"ice/internal/dag"
	"ice/internal/echem"
	"ice/internal/labreg"
	"ice/internal/ml"
	"ice/internal/sched"
	"ice/internal/trace"
	"ice/internal/units"
)

// Fixed iteration counts: a probe is a timed loop of direct calls into
// one layer's public functions, the same count on every commit.
const (
	probeSubmits   = 200    // Scheduler.Submit, each an fsynced admission
	probeHistory   = 20_000 // terminal jobs replayed before submit_ns_20k
	probeDecodes   = 2_000  // JobSpec / DAG spec / lab config decodes
	probeWALs      = 200    // serial WAL appends
	probeCycles    = 20_000 // lease cycles, trace spans, cache keys
	probeCalls     = 500    // pyro round trips and echoes
	probeSims      = 20     // CV simulations, analyses, classifications
	probeBlobs     = 50     // blob puts and gets
	probeBuilds    = 3      // facility builds
	probeBlobBytes = 43_000 // one paper CV's MPT file
)

// perOp times n calls of fn and returns the mean time per call.
func perOp(n int, fn func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// medianOp times n calls of fn one by one and returns the median.
func medianOp(n int, fn func(i int) error) (time.Duration, error) {
	each := make([]float64, n)
	for i := range each {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		each[i] = float64(time.Since(start))
	}
	return time.Duration(median(each)), nil
}

// runProbes times direct calls into each layer. It runs once, after
// the workload, in a state directory of its own.
func runProbes(stateRoot string) (map[string]float64, error) {
	dir, err := os.MkdirTemp(stateRoot, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := map[string]float64{}
	for _, probe := range []func(string, map[string]float64) error{
		probeSched, probeTrace, probeLab, probeScience, probeDAG,
	} {
		if err := probe(dir, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// nullScheduler opens a health-disabled scheduler with the null runner
// over dir, as sched_null does.
func nullScheduler(dir string) (*sched.Scheduler, error) {
	s, err := sched.New(sched.Config{
		Dir:           dir,
		QueueCapacity: queueCapacity,
		Workers:       workers,
		Tenants:       nullTenants,
		Health:        sched.HealthConfig{Disabled: true},
	})
	if err != nil {
		return nil, err
	}
	s.SetRunner(nullRunner)
	return s, s.Start()
}

// submitProbe is the median Scheduler.Submit latency on s, each
// submission awaited so the queue stays empty.
func submitProbe(s *sched.Scheduler) (time.Duration, error) {
	spec := sched.JobSpec{Tenant: "t1", Kind: sched.KindCV, Points: 600}
	each := make([]float64, probeSubmits)
	for i := range each {
		start := time.Now()
		job, err := s.Submit(spec)
		each[i] = float64(time.Since(start))
		if err != nil {
			return 0, err
		}
		if _, err := s.WaitTerminal(context.Background(), job.ID); err != nil {
			return 0, err
		}
	}
	return time.Duration(median(each)), nil
}

// writeHistory writes a WAL holding n finished jobs, so a scheduler
// opened over dir starts with n terminal entries in its job table —
// the state a gateway is in after n jobs, reached without running
// them.
func writeHistory(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, sched.WALFileName))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spec := sched.JobSpec{Tenant: "t1", Kind: sched.KindCV, Points: 600}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("j-%06d", i)
		for _, rec := range []sched.WALRecord{
			{Seq: uint64(2*i - 1), Job: id, Tenant: spec.Tenant, State: sched.StatePending, Spec: &spec},
			{Seq: uint64(2 * i), Job: id, State: sched.StateDone, Result: json.RawMessage(`{"ok":true}`)},
		} {
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func probeSched(dir string, m map[string]float64) error {
	empty, err := nullScheduler(filepath.Join(dir, "sched-empty"))
	if err != nil {
		return err
	}
	d, err := submitProbe(empty)
	empty.Stop()
	if err != nil {
		return err
	}
	m["sched.submit_ns_empty"] = float64(d)

	if err := writeHistory(filepath.Join(dir, "sched-20k"), probeHistory); err != nil {
		return err
	}
	full, err := nullScheduler(filepath.Join(dir, "sched-20k"))
	if err != nil {
		return err
	}
	if got := len(full.Jobs()); got != probeHistory {
		full.Stop()
		return fmt.Errorf("history replay: %d jobs, want %d", got, probeHistory)
	}
	d, err = submitProbe(full)
	full.Stop()
	if err != nil {
		return err
	}
	m["sched.submit_ns_20k"] = float64(d)

	for name, body := range map[string][]byte{
		"sched.decode_jobspec_ns_cv":  cvBody("t1", 50),
		"sched.decode_jobspec_ns_dag": dagBody("t1", 50),
	} {
		d, err := perOp(probeDecodes, func(int) error {
			_, err := sched.DecodeJobSpec(body)
			return err
		})
		if err != nil {
			return err
		}
		m[name] = float64(d)
	}

	wal, _, err := sched.OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	d, err = perOp(probeWALs, func(i int) error {
		return wal.Append(sched.WALRecord{Job: fmt.Sprintf("j-%06d", i), State: sched.StateRunning, Attempt: 1})
	})
	wal.Close()
	if err != nil {
		return err
	}
	m["sched.wal_append_s"] = d.Seconds()

	leases := sched.NewLeases(leaseTTL)
	defer leases.Close()
	d, err = perOp(probeCycles, func(int) error {
		lease, err := leases.Acquire(context.Background(), sched.ResourceSP200, "probe")
		if err != nil {
			return err
		}
		lease.Release()
		return nil
	})
	if err != nil {
		return err
	}
	m["sched.lease_cycle_ns"] = float64(d)
	return nil
}

func probeTrace(_ string, m map[string]float64) error {
	// The tracer sched.New installs by default: bounded store + flight
	// recorder.
	tr := trace.New(trace.WithStore(trace.NewStore(0, 0)), trace.WithRecorder(trace.NewRecorder(512)))
	root := tr.StartTrace("", "probe", trace.ClassSched)
	ctx := trace.ContextWithSpan(context.Background(), root)
	d, err := perOp(probeCycles, func(int) error {
		_, span := trace.Start(ctx, "probe.child", trace.ClassSched)
		span.End()
		return nil
	})
	root.End()
	m["trace.span_ns"] = float64(d)
	return err
}

// zeroLatency returns cfg with every hub's latency and jitter removed:
// the same topology with an instant wire.
func zeroLatency(cfg *labreg.Config) *labreg.Config {
	out := *cfg
	out.Topology.Hubs = append([]labreg.Hub(nil), cfg.Topology.Hubs...)
	for i := range out.Topology.Hubs {
		out.Topology.Hubs[i].Latency = "0s"
		out.Topology.Hubs[i].Jitter = ""
	}
	return &out
}

// statusRTT is the median JKemStatus round trip over f's facility path.
func statusRTT(f *labreg.Facility) (time.Duration, error) {
	session, mount, err := f.ConnectSession()
	if err != nil {
		return 0, err
	}
	defer session.Close()
	defer mount.Close()
	return medianOp(probeCalls, func(int) error {
		_, err := session.JKemStatus()
		return err
	})
}

// echoFloor is the median 1-byte round trip between the client host
// and the echem station's host: the simulated wire's own share of an
// RPC. The echo server listens on the client host (the station's
// firewall admits only its service ports), so the path is the
// station's, walked in reverse.
func echoFloor(f *labreg.Facility) (time.Duration, error) {
	const echoPort = 7
	l, err := f.Network.Listen(f.Config.Client, echoPort)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn)
	}()
	conn, err := f.Network.Dial(f.EchemStation().Host, fmt.Sprintf("%s:%d", f.Config.Client, echoPort))
	if err != nil {
		return 0, err
	}
	buf := []byte{0}
	d, err := medianOp(probeCalls, func(int) error {
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, buf)
		return err
	})
	conn.Close()
	<-served
	return d, err
}

func probeLab(dir string, m map[string]float64) error {
	src, err := os.ReadFile(labConfigPath)
	if err != nil {
		return err
	}
	d, err := perOp(probeDecodes/10, func(int) error {
		_, err := labreg.DecodeConfig(src)
		return err
	})
	if err != nil {
		return err
	}
	m["labreg.decode_config_ns"] = float64(d)

	cfg, err := labreg.DecodeConfig(src)
	if err != nil {
		return err
	}
	d, err = medianOp(probeBuilds, func(i int) error {
		f, err := labreg.Build(cfg, labreg.BuildOptions{Dir: filepath.Join(dir, fmt.Sprintf("build-%d", i))})
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	m["labreg.build_s"] = d.Seconds()

	wan, err := labreg.Build(cfg, labreg.BuildOptions{Dir: filepath.Join(dir, "wan")})
	if err != nil {
		return err
	}
	defer wan.Close()
	if d, err = statusRTT(wan); err != nil {
		return err
	}
	m["pyro.wan_rtt_p50_s"] = d.Seconds()
	if d, err = echoFloor(wan); err != nil {
		return err
	}
	m["netsim.wan_rtt_floor_s"] = d.Seconds()

	instant, err := labreg.Build(zeroLatency(cfg), labreg.BuildOptions{Dir: filepath.Join(dir, "instant")})
	if err != nil {
		return err
	}
	defer instant.Close()
	if d, err = statusRTT(instant); err != nil {
		return err
	}
	m["pyro.call_cpu_ns"] = float64(d)
	return nil
}

func probeScience(_ string, m map[string]float64) error {
	w, err := core.PaperCVParams().Program().Waveform()
	if err != nil {
		return err
	}
	var vg *echem.Voltammogram
	d, err := perOp(probeSims, func(int) error {
		vg, err = echem.Simulate(echem.DefaultCell(), w, core.PaperCVParams().Points)
		return err
	})
	if err != nil {
		return err
	}
	m["echem.simulate_cv_s"] = d.Seconds()

	e, i := vg.Potentials(), vg.Currents()
	d, err = perOp(probeSims, func(int) error {
		_, err := analysis.AnalyzeCV(e, i, units.Celsius(25))
		return err
	})
	if err != nil {
		return err
	}
	m["analysis.analyze_cv_s"] = d.Seconds()

	start := time.Now()
	clf, _, err := ml.TrainNormalityClassifier(classifierConfig)
	if err != nil {
		return err
	}
	m["ml.train_s"] = time.Since(start).Seconds()
	d, err = perOp(probeSims, func(int) error {
		feats, err := ml.Features(e, i)
		if err != nil {
			return err
		}
		_, err = clf.Predict(feats)
		return err
	})
	if err != nil {
		return err
	}
	m["ml.classify_s"] = d.Seconds()
	return nil
}

func probeDAG(dir string, m map[string]float64) error {
	doc := []byte(dagDoc(50))
	d, err := perOp(probeDecodes, func(int) error {
		_, err := dag.DecodeSpec(doc)
		return err
	})
	if err != nil {
		return err
	}
	m["dag.decode_spec_ns"] = float64(d)

	spec, err := dag.DecodeSpec(doc)
	if err != nil {
		return err
	}
	digest := spec.Nodes[0].SpecDigest()
	inputs := []string{digest, digest, digest}
	d, _ = perOp(probeCycles, func(int) error {
		dag.CacheKey(digest, inputs)
		return nil
	})
	m["dag.cache_key_ns"] = float64(d)

	cache, err := dag.OpenCache(filepath.Join(dir, "dagcache"))
	if err != nil {
		return err
	}
	payload := make([]byte, probeBlobBytes)
	digests := make([]string, probeBlobs)
	d, err = perOp(probeBlobs, func(i int) error {
		payload[0], payload[1] = byte(i), byte(i>>8) // distinct content, distinct blob
		digests[i], err = cache.PutBlob(payload)
		return err
	})
	if err != nil {
		return err
	}
	m["dag.blob_put_s"] = d.Seconds()
	d, err = perOp(probeBlobs, func(i int) error {
		if _, ok := cache.GetBlob(digests[i]); !ok {
			return fmt.Errorf("blob %d missing", i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["dag.blob_get_s"] = d.Seconds()
	return nil
}
