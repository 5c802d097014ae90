// Icegated is the experiment-scheduling gateway: a daemon that admits
// job submissions from many tenants over HTTP/JSON, orders them with
// per-tenant fair sharing, guards the shared instruments with TTL'd
// leases, and journals every job transition so a crashed gateway
// restarts without losing or duplicating work.
//
//	icegated -selflab                                  # simulated lab, HTTP on :9700
//	icegated -selflab -dir /var/lib/icegated           # durable state directory
//	icegated -lab examples/labs/microscopy.yaml        # declarative facility from a registry config
//	icegated -agent acl-host -token s3cret -reliable   # schedule onto a real control agent
//
// Federate gateways across facilities (replicated WAL, leader
// failover, partition-tolerant routing):
//
//	icegated -selflab -facility faca -peer facb=http://b:9700 -peer-lab facb=b-lab:9690
//
// Submit with icectl:
//
//	icectl -gateway http://localhost:9700 submit -tenant acl -kind cv
//	icectl -gateway http://localhost:9700 wait j-000001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ice/internal/core"
	"ice/internal/labreg"
	"ice/internal/netsim"
	"ice/internal/sched"
	"ice/internal/sched/cluster"
	"ice/internal/trace"
)

func main() {
	listen := flag.String("listen", "localhost:9700", "HTTP listen address (host:port; :0 picks a free port)")
	dir := flag.String("dir", "icegated_state", "state directory: job WAL plus per-job workflow journals")
	queueCap := flag.Int("queue", 64, "queued-job capacity across all tenants; beyond it submissions get 429 + Retry-After")
	workers := flag.Int("workers", 2, "concurrent jobs (instrument access still serialises on the lease)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "instrument lease TTL; a holder that stops heartbeating loses the lab")
	probeInterval := flag.Duration("probe-interval", time.Second, "instrument health probe cadence; an open breaker quarantines the instrument and checkpoint-requeues its jobs (0 disables health supervision)")
	minDeadline := flag.Duration("min-deadline", 500*time.Millisecond, "admission floor for job deadline_ms: shorter deadlines get 503 + Retry-After at submit instead of occupying a lease (0 disables the floor)")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "back-off hint attached to full-queue rejections")
	weights := flag.String("weights", "", "per-tenant fair-share weights, e.g. acl=3,dgx=1 (default weight 1)")
	campaignPoints := flag.Int("campaign-points", 300, "CV points acquired per campaign round")
	dagCacheMax := flag.Int64("dag-cache-max", 256<<20, "DAG blob cache cap in bytes: least-recently-used measurement payloads are evicted past it (0 = unbounded)")

	selflab := flag.Bool("selflab", false, "serve an in-process simulated lab (netsim) instead of dialing an agent")
	seed := flag.Int64("seed", 1, "selflab/-lab: synthesis noise seed")
	timeScale := flag.Float64("timescale", 0, "selflab/-lab: instrument pacing (0 = instant)")
	labConfig := flag.String("lab", "", "declarative lab: materialize a facility from this YAML/JSON registry config (see examples/labs/) instead of the hardcoded -selflab deployment")

	agentHost := flag.String("agent", "", "control agent host (real-TCP mode; mutually exclusive with -selflab)")
	controlPort := flag.Int("control-port", 9690, "control channel port")
	dataPort := flag.Int("data-port", 4450, "data channel port")
	token := flag.String("token", "", "control-channel credential (must match the agent's -token)")
	reliable := flag.Bool("reliable", false, "retry instrument commands across transport faults with exactly-once semantics")
	reliableData := flag.Bool("reliable-data", false, "self-healing data mount: redial and resume interrupted transfers")
	streamAnalysis := flag.Bool("stream-analysis", false, "cv jobs: tail the measurement file during acquisition and analyze online, so the verdict is ready at instrument release")

	traceExport := flag.String("trace-export", "", "append finished trace spans to this JSONL file (crash-safe batched writes; view with icetrace)")
	traceSample := flag.Float64("trace-sample", 1, "head-sampling ratio for traces (errors and flight-recorder dumps are always kept)")

	facility := flag.String("facility", "", "federated cluster: this gateway's home facility name; job IDs get the facility prefix and -peer gateways receive synchronous WAL replication")
	peers := assignments{}
	flag.Var(peers, "peer", "federated cluster: a peer gateway as facility=http://host:9700 (repeatable)")
	peerLabs := assignments{}
	flag.Var(peerLabs, "peer-lab", "federated cluster: a peer facility's lab address as facility=host:port, dialed as the failover fencing probe (repeatable; omitted = never adopt that peer's jobs)")
	flag.Parse()

	var connector sched.Connector
	var labFacility *labreg.Facility
	// instruments maps each health-probed instrument class to its lease
	// resources: the echem pair, or every device a declared lab names.
	instruments := map[string][]string{"sp200": {sched.ResourceSP200}, "jkem": {sched.ResourceJKem}}
	modes := 0
	for _, on := range []bool{*selflab, *agentHost != "", *labConfig != ""} {
		if on {
			modes++
		}
	}
	switch {
	case modes > 1:
		log.Fatal("choose one lab source: -selflab, -agent HOST, or -lab CONFIG")
	case *labConfig != "":
		f, err := labreg.LoadAndBuild(*labConfig, labreg.BuildOptions{
			Dir:       filepath.Join(*dir, "lab"),
			TimeScale: *timeScale,
			Seed:      *seed,
			AuthToken: *token,
		})
		if err != nil {
			log.Fatalf("build facility from %s: %v", *labConfig, err)
		}
		defer f.Close()
		labFacility = f
		connector = f
		instruments = f.HealthInstruments()
		log.Printf("labreg: facility %q up from %s (%d stations: %s)",
			f.Config.Facility, *labConfig, len(f.Stations()), stationSummary(f))
	case *selflab:
		labDir := filepath.Join(*dir, "lab")
		if err := os.MkdirAll(labDir, 0o755); err != nil {
			log.Fatal(err)
		}
		d, err := core.Deploy(labDir, *timeScale)
		if err != nil {
			log.Fatalf("deploy simulated lab: %v", err)
		}
		defer d.Close()
		if err := d.AttachLab(*seed, *timeScale); err != nil {
			log.Fatalf("attach lab stations: %v", err)
		}
		connector = &sched.DeploymentConnector{D: d, Host: netsim.HostDGX}
		log.Printf("selflab: simulated lab up (seed %d, timescale %g)", *seed, *timeScale)
	case *agentHost != "":
		connector = &sched.NetConnector{
			Agent:        *agentHost,
			ControlPort:  *controlPort,
			DataPort:     *dataPort,
			Token:        *token,
			Reliable:     *reliable,
			ReliableData: *reliableData,
		}
	default:
		log.Fatal("need a lab: -selflab, -agent HOST, or -lab CONFIG")
	}

	// The tracer always keeps an in-memory store (the gateway's
	// /v1/traces) and a flight recorder; -trace-export adds a durable
	// JSONL feed for offline icetrace analysis.
	traceOpts := []trace.Option{
		trace.WithStore(trace.NewStore(0, 0)),
		trace.WithRecorder(trace.NewRecorder(512)),
		trace.WithSampler(trace.Ratio(*traceSample)),
	}
	if *traceExport != "" {
		exp, err := trace.NewJSONLExporter(*traceExport, time.Second)
		if err != nil {
			log.Fatalf("open trace export: %v", err)
		}
		defer exp.Close()
		traceOpts = append(traceOpts, trace.WithExporter(exp))
		log.Printf("tracing: exporting spans to %s", *traceExport)
	}
	tracer := trace.New(traceOpts...)

	tenants, err := parseWeights(*weights)
	if err != nil {
		log.Fatal(err)
	}

	// With a declared lab, the health supervisor's instrument map comes
	// from the registry — every configured device class gets probed, and
	// scan jobs only wait on the stem class, not the echem pair.
	healthCfg := healthConfig(*probeInterval, *minDeadline)
	if labFacility != nil {
		healthCfg.Instruments = instruments
		healthCfg.ClassesFor = labFacility.ClassesFor
	}

	if *facility != "" {
		if labFacility != nil {
			log.Fatal("-lab does not federate yet: use -selflab or -agent with -facility")
		}
		peerList, err := clusterPeers(peers, peerLabs)
		if err != nil {
			log.Fatal(err)
		}
		node, err := cluster.NewNode(cluster.Config{
			Facility: *facility,
			Peers:    peerList,
			Sched: sched.Config{
				Dir:           *dir,
				QueueCapacity: *queueCap,
				RetryAfter:    *retryAfter,
				Workers:       *workers,
				LeaseTTL:      *leaseTTL,
				Tenants:       tenants,
				Tracer:        tracer,
				Health:        healthCfg,
			},
			NewRunner: func(n *cluster.Node, fac string) sched.Runner {
				return &sched.LabRunner{
					Connector:        connector,
					Leases:           n.Scheduler().Leases(),
					Dir:              n.Scheduler().Dir(),
					Resources:        cluster.FacilityResources(fac),
					MirrorJournal:    n.MirrorJournal,
					CampaignCVPoints: *campaignPoints,
					StreamAnalysis:   *streamAnalysis,
					Metrics:          n.Scheduler().Metrics(),
					CacheMaxBytes:    *dagCacheMax,
				}
			},
			RetryAfter: *retryAfter,
		})
		if err != nil {
			log.Fatal(err)
		}
		closeProbers := wireProbers(node.Scheduler(), node.Gateway(), connector,
			map[string][]string{"echem": cluster.FacilityResources(*facility)})
		defer closeProbers()
		serveCluster(*listen, node)
		return
	}
	if len(peers) > 0 || len(peerLabs) > 0 {
		log.Fatal("-peer/-peer-lab require -facility")
	}

	s, err := sched.New(sched.Config{
		Dir:           *dir,
		QueueCapacity: *queueCap,
		RetryAfter:    *retryAfter,
		Workers:       *workers,
		LeaseTTL:      *leaseTTL,
		Tenants:       tenants,
		Tracer:        tracer,
		Health:        healthCfg,
	})
	if err != nil {
		log.Fatalf("open job store: %v", err)
	}
	s.SetRunner(&sched.LabRunner{
		Connector:        connector,
		Leases:           s.Leases(),
		Dir:              s.Dir(),
		CampaignCVPoints: *campaignPoints,
		StreamAnalysis:   *streamAnalysis,
		Metrics:          s.Metrics(),
		CacheMaxBytes:    *dagCacheMax,
	})
	gw := sched.NewGateway(s)
	closeProbers := wireProbers(s, gw, connector, instruments)
	defer closeProbers()
	if err := s.Start(); err != nil {
		log.Fatal(err)
	}

	// Signals are caught before the "listening on" line, so whoever
	// waits for that line may stop the daemon at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: gw}
	go func() {
		if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}()
	log.Printf("icegated: listening on http://%s (state in %s, queue %d, %d workers, lease TTL %v)",
		l.Addr(), *dir, *queueCap, *workers, *leaseTTL)

	<-ctx.Done()
	log.Print("icegated: shutting down (queued jobs stay PENDING in the WAL)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	s.Stop()
}

// healthConfig builds the scheduler's health supervision config from
// the -probe-interval and -min-deadline flags (probe interval 0
// disables supervision entirely; the admission floor survives that,
// since rejecting an unmeetable deadline needs no probes).
func healthConfig(probeInterval, minDeadline time.Duration) sched.HealthConfig {
	if probeInterval <= 0 {
		return sched.HealthConfig{Disabled: true, MinDeadline: minDeadline}
	}
	return sched.HealthConfig{ProbeInterval: probeInterval, MinDeadline: minDeadline}
}

// wireProbers attaches health probes, the quarantine fence and the
// probe/session-liveness metrics for every instrument class in
// instruments (class → lease resources) to a scheduler and its
// gateway: the scan prober covers the stem class when the connector
// can reach a scan station, one lab prober covers every other class,
// and the fence fans out to both (each fence ignores resources outside
// its class). Call before Start so the first probe tick has probers;
// the returned func closes them.
func wireProbers(s *sched.Scheduler, gw *sched.Gateway, connector sched.Connector, instruments map[string][]string) func() {
	var closers []func()
	var fences []func(ctx context.Context, resource string)

	var echemRes []string
	for class, resources := range instruments {
		if class == "stem" {
			continue
		}
		echemRes = append(echemRes, resources...)
	}
	if len(echemRes) > 0 {
		p := &sched.LabProber{Connector: connector}
		for _, res := range echemRes {
			s.RegisterProber(res, p.ProberFor(res))
		}
		fences = append(fences, p.FenceFor)
		gw.Registry().AddSource(p.HealthSource())
		closers = append(closers, p.Close)
	}
	if scanner, ok := connector.(sched.ScanConnector); ok && len(instruments["stem"]) > 0 {
		p := &sched.ScanProber{Connector: scanner}
		for _, res := range instruments["stem"] {
			s.RegisterProber(res, p.Prober())
		}
		fences = append(fences, p.Fence)
		gw.Registry().AddSource(p.HealthSource())
		closers = append(closers, p.Close)
	}
	s.SetFence(func(ctx context.Context, resource string) {
		for _, fence := range fences {
			fence(ctx, resource)
		}
	})
	return func() {
		for _, c := range closers {
			c()
		}
	}
}

// stationSummary renders a facility's stations for the startup log.
func stationSummary(f *labreg.Facility) string {
	var parts []string
	for _, st := range f.Stations() {
		parts = append(parts, fmt.Sprintf("%s:%d", st.Host, st.Port))
	}
	return strings.Join(parts, ", ")
}

// parseWeights turns "acl=3,dgx=1" into per-tenant limits.
func parseWeights(s string) (map[string]sched.TenantLimits, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]sched.TenantLimits)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -weights entry %q (want tenant=weight)", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q for tenant %s", val, name)
		}
		out[name] = sched.TenantLimits{Weight: w}
	}
	return out, nil
}
