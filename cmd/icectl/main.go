// Icectl is the remote-side CLI: it connects to a running
// cmd/controlagent over real TCP and drives workflows against it — the
// role the Jupyter notebook on the DGX plays in the paper.
//
//	icectl -agent localhost status
//	icectl -agent localhost fill
//	icectl -agent localhost cv
//	icectl -agent localhost workflow   # full tasks A–E
//	icectl -agent localhost -journal cv.journal workflow            # checkpoint progress
//	icectl -agent localhost -journal cv.journal -resume workflow    # resume after a crash
//	icectl -agent localhost -reliable -timeout 15m workflow         # chaos-tolerant session
//	icectl -agent localhost -reliable -reliable-data workflow       # both channels self-heal
//	icectl -agent localhost campaign   # adaptive target-peak search (agent needs -lab)
//	icectl -agent localhost qos        # control-RTT histogram + data throughput
//	icectl -agent localhost abort      # emergency-stop a running acquisition
//	icectl -agent localhost files
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"ice/internal/analysis"
	"ice/internal/campaign"
	"ice/internal/core"
	"ice/internal/datachan"
	"ice/internal/jsonl"
	"ice/internal/potentiostat"
	"ice/internal/pyro"
	"ice/internal/workflow"
)

func main() {
	agentHost := flag.String("agent", "localhost", "control agent host")
	controlPort := flag.Int("control-port", 9690, "control channel port")
	dataPort := flag.Int("data-port", 4450, "data channel port")
	volume := flag.Float64("volume", 6, "fill volume in mL")
	rate := flag.Float64("scan-rate", 50, "CV scan rate in mV/s")
	token := flag.String("token", "", "control-channel credential (must match the agent's -token)")
	targetUA := flag.Float64("target-peak", 30, "campaign target anodic peak in µA")
	fleetN := flag.Int("fleet", 1, "campaign: run N concurrent campaigns sharing the lab (targets spread ±20% around -target-peak)")
	readahead := flag.Int("readahead", datachan.DefaultReadahead, "data channel: chunk requests kept in flight per whole-file read (1 = serial)")
	timeout := flag.Duration("timeout", 0, "overall command deadline (0 = none), e.g. 15m")
	reliable := flag.Bool("reliable", false, "retry commands across transport faults with exactly-once semantics")
	streamAnalysis := flag.Bool("stream-analysis", false, "workflow: tail the measurement file during acquisition and classify online, so the verdict is ready when the instrument is released")
	reliableData := flag.Bool("reliable-data", false, "self-healing data mount: redial the share and resume interrupted transfers from the last verified offset")
	journalPath := flag.String("journal", "", "workflow: checkpoint task progress to this file")
	resume := flag.Bool("resume", false, "workflow: restore completed tasks from -journal before executing")
	gateway := flag.String("gateway", "", "icegated URL(s), comma-separated for a federated cluster: verbs become submit|status|wait|trace|cancel against the scheduling gateway (503s and dead endpoints fail over to the next)")
	tenant := flag.String("tenant", "", "gateway: tenant identity for submit")
	kind := flag.String("kind", "cv", "gateway submit from flags: job kind, cv or scan (a scan job surveys and steers the facility's STEM; tile geometry via a spec file)")
	deadline := flag.Duration("deadline", 0, "gateway submit: end-to-end deadline from admission (0 = none); unmeetable deadlines are rejected with 503 + Retry-After instead of occupying a lease")
	dagSpec := flag.String("dag", "", "gateway: submit the declarative experiment DAG in this JSON file (\"-\" = stdin) as a dag job; implies the submit verb (see examples/dag/)")
	flag.Parse()
	if flag.NArg() < 1 && *dagSpec == "" {
		log.Fatal("usage: icectl [flags] status|fill|cv|eis|workflow|campaign|qos|abort|retain|replay|files\n" +
			"       icectl -gateway URL [flags] submit|status|wait|trace|cancel [args]\n" +
			"       icectl -gateway URL -tenant NAME -dag spec.json [wait]")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *gateway != "" {
		verb, rest := "submit", []string(nil)
		switch {
		case *dagSpec != "":
			// -dag implies submit; a trailing "wait" blocks on the result.
			rest = flag.Args()
		case flag.NArg() >= 1:
			verb, rest = flag.Arg(0), flag.Args()[1:]
		}
		runGateway(ctx, *gateway, verb, rest, gatewayOpts{
			tenant:   *tenant,
			kind:     *kind,
			scanRate: *rate,
			deadline: *deadline,
			dagPath:  *dagSpec,
		})
		return
	}
	if *dagSpec != "" {
		log.Fatal("-dag submits through a scheduling gateway: add -gateway URL")
	}

	uri := pyro.URI{Object: core.JKemObject, Host: *agentHost, Port: *controlPort}
	sessionOpts := core.SessionOptions{Token: *token}
	var session *core.RemoteSession
	if *reliable {
		session = core.ConnectSessionReliable(uri, nil, sessionOpts)
	} else {
		var err error
		session, err = core.ConnectSession(uri, nil, sessionOpts)
		if err != nil {
			log.Fatalf("control channel: %v", err)
		}
	}
	defer session.Close()

	dataAddr := fmt.Sprintf("%s:%d", *agentHost, *dataPort)
	newMount := func() (datachan.Share, error) {
		if *reliableData {
			rm := datachan.NewReliableMount(func() (net.Conn, error) {
				return net.Dial("tcp", dataAddr)
			})
			rm.Readahead = *readahead
			return rm, nil
		}
		mountConn, err := net.Dial("tcp", dataAddr)
		if err != nil {
			return nil, err
		}
		m := datachan.NewMount(mountConn)
		m.SetReadahead(*readahead)
		return m, nil
	}
	mount, err := newMount()
	if err != nil {
		log.Fatalf("data channel: %v", err)
	}
	defer mount.Close()

	logLine := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	switch cmd := flag.Arg(0); cmd {
	case "status":
		jk, err := session.JKemStatus()
		if err != nil {
			log.Fatal(err)
		}
		sp, err := session.SP200Status()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("J-Kem:", jk)
		fmt.Println("SP200:", sp)

	case "fill":
		fill := core.PaperFillParams()
		fill.VolumeML = *volume
		if err := core.FillCell(ctx, session, fill, logLine); err != nil {
			log.Fatal(err)
		}

	case "cv":
		params := core.PaperCVParams()
		params.RateMVs = *rate
		if err := core.PowerUpSP200(session, core.PaperSystemParams(), logLine); err != nil {
			log.Fatal(err)
		}
		if err := core.StartCV(session, params, logLine); err != nil {
			log.Fatal(err)
		}
		name, err := session.CallGetTechPathRslt()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("measurement file:", name)
		data, _, _, err := core.RetrieveVerified(ctx, mount, name, 100*time.Millisecond, 10*time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		records, summary, err := core.AnalyzeCV(data)
		if err != nil {
			log.Fatal(err)
		}
		e, i := analysis.FromRecords(records)
		fmt.Println(analysis.ASCIIPlot(e, i, 70, 20))
		fmt.Println(summary)

	case "workflow":
		cfg := core.PaperCVWorkflowConfig()
		cfg.CV.RateMVs = *rate
		cfg.Fill.VolumeML = *volume
		cfg.WaitPoll = 100 * time.Millisecond
		cfg.WaitTimeout = 10 * time.Minute
		cfg.StreamAnalysis = *streamAnalysis
		nb, outcome := core.BuildCVWorkflow(session, mount, cfg)
		if *resume && *journalPath == "" {
			log.Fatal("-resume requires -journal")
		}
		if *journalPath != "" {
			var records []workflow.TaskRecord
			j, err := jsonl.Open(*journalPath, jsonl.Collect(&records))
			if err != nil {
				log.Fatalf("open journal: %v", err)
			}
			defer j.Close()
			if *resume {
				if n := nb.Restore(records); n > 0 {
					fmt.Printf("resuming: %d completed task(s) restored from %s\n", n, *journalPath)
				}
				// The crash may have left the instrument mid-pipeline, where
				// the resumed acquisition task could not legally re-run.
				if err := session.ResetSP200(); err != nil {
					log.Fatalf("reset instrument before resume: %v", err)
				}
			}
			nb.SetJournal(j)
		}
		if err := nb.Execute(ctx); err != nil {
			for _, line := range nb.Transcript() {
				fmt.Println(line)
			}
			log.Fatal(err)
		}
		for _, line := range nb.Transcript() {
			fmt.Println(line)
		}
		fmt.Println()
		for _, line := range nb.Summary() {
			fmt.Println(line)
		}
		if outcome.Streamed {
			fmt.Printf("streamed: %d online verdict(s) during acquisition, final analysis %v after instrument release\n",
				outcome.StreamEvals, outcome.VerdictReady.Sub(outcome.AcquireEnd).Round(time.Millisecond))
		}
		if outcome.Summary != nil {
			e, i := analysis.FromRecords(outcome.Records)
			fmt.Println(analysis.ASCIIPlot(e, i, 70, 20))
		}

	case "eis":
		// The device may already be up from a previous command.
		_ = core.PowerUpSP200(session, core.PaperSystemParams(), nil)
		name, err := session.RunEIS(core.EISParams{FreqMinHz: 1, FreqMaxHz: 100_000, PointsPerDecade: 10})
		if err != nil {
			log.Fatal(err)
		}
		data, _, err := mount.WaitFor(name, 100*time.Millisecond, 10*time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		label, points, err := potentiostat.ParseEIS(bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		summary, err := analysis.AnalyzeEIS(points)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("spectrum %s (%d points, condition %s)\n%s\n", name, len(points), label, summary)

	case "campaign":
		// Requires the agent to run with -lab.
		if *fleetN <= 1 {
			lab, err := core.ConnectLabSession(uri, nil, *token)
			if err != nil {
				log.Fatalf("lab stations unreachable (start the agent with -lab): %v", err)
			}
			defer lab.Close()
			exec := &campaign.Executor{Session: lab, Mount: mount, CVPoints: 800}
			planner := &campaign.TargetPeakSearch{
				TargetPeakUA: *targetUA, MinMM: 0.25, MaxMM: 5,
			}
			history, err := exec.Run(planner)
			if err != nil {
				log.Fatalf("campaign after %d rounds: %v", len(history), err)
			}
			fmt.Println("round  conc(mM)  peak")
			for _, obs := range history {
				fmt.Printf("%5d  %8.3f  %v\n", obs.Round, obs.Params.ConcentrationMM, obs.Peak)
			}
			last := history[len(history)-1]
			fmt.Printf("converged: %.3f mM gives %v (target %.1f µA)\n",
				last.Params.ConcentrationMM, last.Peak, *targetUA)
			break
		}

		// Fleet mode: N concurrent target-peak searches share the lab.
		// The instrument phase serialises on the fleet gate while each
		// cell's WAN retrieval and analysis overlap its siblings'
		// acquisitions. Targets spread ±20% around -target-peak so the
		// fleet maps the concentration–peak curve, not one point N times.
		fleet := &campaign.Fleet{History: &campaign.SharedHistory{}}
		for i := 0; i < *fleetN; i++ {
			lab, err := core.ConnectLabSession(uri, nil, *token)
			if err != nil {
				log.Fatalf("fleet cell %d: lab stations unreachable (start the agent with -lab): %v", i+1, err)
			}
			defer lab.Close()
			cellMount, err := newMount()
			if err != nil {
				log.Fatalf("fleet cell %d: data channel: %v", i+1, err)
			}
			defer cellMount.Close()
			spread := 1.0
			if *fleetN > 1 {
				spread = 0.8 + 0.4*float64(i)/float64(*fleetN-1)
			}
			fleet.Cells = append(fleet.Cells, campaign.FleetCell{
				Executor: &campaign.Executor{Session: lab, Mount: cellMount, CVPoints: 800},
				Planner: &campaign.TargetPeakSearch{
					TargetPeakUA: *targetUA * spread, MinMM: 0.25, MaxMM: 5,
				},
			})
		}
		start := time.Now()
		results, err := fleet.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fleet of %d campaigns finished in %v (%d observations)\n",
			len(results), time.Since(start).Round(time.Millisecond), fleet.History.Len())
		fmt.Println("cell     rounds  conc(mM)  peak")
		for _, res := range results {
			if res.Err != nil {
				fmt.Printf("%-8s FAILED after %d rounds: %v\n", res.Name, len(res.History), res.Err)
				continue
			}
			last := res.History[len(res.History)-1]
			fmt.Printf("%-8s %6d  %8.3f  %v\n",
				res.Name, len(res.History), last.Params.ConcentrationMM, last.Peak)
		}

	case "qos":
		files, err := mount.List()
		if err != nil {
			log.Fatal(err)
		}
		probe := ""
		if len(files) > 0 {
			probe = files[0].Name
		}
		report, err := core.MeasureQoS(session, mount, 50, probe, 5)
		if err != nil {
			log.Fatal(err)
		}
		for _, line := range report.Lines() {
			fmt.Println(line)
		}

	case "replay":
		// Fetch the provenance journal off the share and re-execute it
		// against this agent — reproduce the recorded experiment.
		data, _, err := mount.WaitFor(core.AuditFileName, 100*time.Millisecond, 10*time.Second)
		if err != nil {
			log.Fatalf("no audit journal on the share (agent needs -audit): %v", err)
		}
		entries, err := core.ParseAuditJournal(data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replaying %d journaled commands…\n", len(entries))
		results, err := core.ReplayJournal(entries, uri, nil, *token, true)
		if err != nil {
			log.Fatal(err)
		}
		failed := 0
		for _, r := range results {
			status := "OK"
			if r.Err != nil {
				status = "ERR " + r.Err.Error()
				failed++
			}
			fmt.Printf("  %3d %s.%s → %s\n", r.Entry.Seq, r.Entry.Object, r.Entry.Method, status)
		}
		fmt.Printf("replay complete: %d ok, %d failed\n", len(results)-failed, failed)

	case "abort":
		out, err := session.AbortSP200()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)

	case "retain":
		removed, err := session.RetainMeasurements(20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pruned %d old measurement files (kept newest 20)\n", removed)

	case "files":
		files, err := mount.List()
		if err != nil {
			log.Fatal(err)
		}
		if len(files) == 0 {
			fmt.Println("(no measurement files yet)")
		}
		for _, f := range files {
			fmt.Printf("%-32s %8d bytes  %s\n", f.Name, f.Size,
				time.Unix(0, f.ModTimeUnixNano).Format(time.RFC3339))
		}

	default:
		log.Fatalf("unknown command %q", cmd)
	}
}
