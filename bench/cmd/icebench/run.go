package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// phase is one driven stretch of a workload: the jobs the two
// connections submitted and what the process spent meanwhile.
type phase struct {
	jobs       []*jobRecord
	start, end time.Time
	// allocBytes, mallocs, gcPause and cpu are process-wide deltas over
	// the phase (the harness's own client work included).
	allocBytes uint64
	mallocs    uint64
	gcPause    time.Duration
	cpu        time.Duration
}

// done counts jobs that were admitted, finished DONE and passed their
// output check.
func (p *phase) done() int {
	n := 0
	for _, j := range p.jobs {
		if j.ok() {
			n++
		}
	}
	return n
}

// setUp brings the rig up and runs the workload's warm-up jobs through
// it over HTTP: facility build, classifier training, scheduler open
// and warm-up are what setup_s times.
func setUp(stateRoot string, w *workload, tr *tracer) (*rig, []*jobRecord, error) {
	r, err := newRig(stateRoot, w.rig, tr)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(r.base)
	defer c.close()
	var warm []*jobRecord
	for _, gen := range w.warmup {
		rec := &jobRecord{gen: gen}
		warm = append(warm, rec)
		if err := runOne(r, c, rec); err != nil {
			r.close()
			return nil, nil, fmt.Errorf("warm-up %s job: %w", gen.kind, err)
		}
		if rec.status != http.StatusAccepted || rec.terminal != "done" {
			detail := rec.checkErr
			if job, ok := r.sched.Job(rec.id); ok && job.Error != "" {
				detail = fmt.Errorf("%s", job.Error)
			}
			r.close()
			return nil, nil, fmt.Errorf("warm-up %s job ended %q: %v", gen.kind, rec.terminal, detail)
		}
	}
	return r, warm, nil
}

// runOne submits one job, awaits its verdict and does the lab upkeep
// its kind calls for.
func runOne(r *rig, c *client, rec *jobRecord) error {
	if err := c.submit(rec); err != nil {
		return err
	}
	if rec.status != http.StatusAccepted {
		return nil
	}
	if err := c.await(rec, false); err != nil {
		return err
	}
	return upkeep(r, rec)
}

// upkeep docks and recharges the robot after a campaign: each transfer
// spends battery, and a robot that runs flat mid-transfer wedges with
// the vial in its gripper. Campaigns run one at a time, so the robot
// is idle here.
func upkeep(r *rig, rec *jobRecord) error {
	if rec.gen.kind != kindCampaign {
		return nil
	}
	session, mount, err := r.fac.ConnectLab()
	if err != nil {
		return fmt.Errorf("robot upkeep: %w", err)
	}
	defer session.Close()
	defer mount.Close()
	if _, err := session.RobotMoveTo("dock"); err != nil {
		return fmt.Errorf("robot upkeep: %w", err)
	}
	if _, err := session.RobotCharge(); err != nil {
		return fmt.Errorf("robot upkeep: %w", err)
	}
	return nil
}

// drive runs the workload's closed loop for dur: each connection
// submits burst jobs, awaits their verdicts, and goes again until the
// time is up; jobs in flight at the deadline run to their verdict.
func drive(r *rig, w *workload, seed int64, dur time.Duration, keepEvents bool) (*phase, error) {
	clients := make([]*client, connections)
	for i := range clients {
		clients[i] = newClient(r.base)
		defer clients[i].close()
	}
	gen := w.generator(seed)
	perConn := make([][]*jobRecord, connections)
	errs := make([]error, connections)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := processCPU()
	p := &phase{start: time.Now()}
	deadline := p.start.Add(dur)

	var wg sync.WaitGroup
	for conn := range clients {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			c := clients[conn]
			for time.Now().Before(deadline) {
				batch := make([]*jobRecord, w.burst)
				for i := range batch {
					batch[i] = &jobRecord{gen: gen.next(conn)}
					if err := c.submit(batch[i]); err != nil {
						errs[conn] = err
						return
					}
				}
				perConn[conn] = append(perConn[conn], batch...)
				for _, rec := range batch {
					if rec.status != http.StatusAccepted {
						continue
					}
					if err := c.await(rec, keepEvents); err != nil {
						errs[conn] = err
						return
					}
					if err := upkeep(r, rec); err != nil {
						errs[conn] = err
						return
					}
				}
			}
		}(conn)
	}
	wg.Wait()

	p.end = time.Now()
	p.cpu = processCPU() - cpuBefore
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for conn, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("connection %d: %w", conn, err)
		}
		p.jobs = append(p.jobs, perConn[conn]...)
	}
	return p, nil
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
