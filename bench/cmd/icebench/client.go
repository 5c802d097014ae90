package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ice/internal/sched"
)

// client is one remote scientist: one keep-alive HTTP connection to
// the gateway, used strictly request after request.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobRecord is what the client saw of one job.
type jobRecord struct {
	gen genJob

	// status is the POST's HTTP status; id is set on 202.
	status int
	id     string
	// sent and acked bracket the POST round trip; sseStart is when the
	// events request went out; verdict is when the terminal event
	// arrived.
	sent, acked, sseStart, verdict time.Time
	// terminal is the terminal event's type ("done", "failed",
	// "cancelled"), "" when the stream ended without one.
	terminal string
	// polled marks a verdict learned from GET /v1/jobs/{id} because the
	// SSE stream ended without a terminal event.
	polled bool
	// events is the job's SSE stream, kept only in the traced run.
	events []sched.Event
	// checkErr is the output check's finding (nil = passed).
	checkErr error
}

// ok reports whether the job was admitted, finished DONE and passed
// its output check.
func (j *jobRecord) ok() bool {
	return j.status == http.StatusAccepted && j.terminal == "done" && j.checkErr == nil
}

// submit POSTs the spec and records the admission round trip.
func (c *client) submit(rec *jobRecord) error {
	rec.sent = time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(rec.gen.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.acked = time.Now()
	if err != nil {
		return err
	}
	rec.status = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		rec.checkErr = fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(body))
		return nil
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &job); err != nil {
		return fmt.Errorf("decode submit reply: %w", err)
	}
	rec.id = job.ID
	return nil
}

// await follows the job's SSE stream to its end and records when the
// terminal event arrived. keepEvents decodes and keeps every event
// (the traced run cuts spans from their timestamps).
func (c *client) await(rec *jobRecord, keepEvents bool) error {
	rec.sseStart = time.Now()
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + rec.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", rec.id, resp.Status)
	}
	// The stream is read to EOF so the connection returns to the pool.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var eventType string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			eventType = line[len("event: "):]
			switch eventType {
			case "done", "failed", "cancelled":
				rec.verdict = time.Now()
				rec.terminal = eventType
			}
		case strings.HasPrefix(line, "data: ") && keepEvents && eventType != "end":
			var ev sched.Event
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return fmt.Errorf("decode event of %s: %w", rec.id, err)
			}
			rec.events = append(rec.events, ev)
		}
	}
	if err := sc.Err(); err != nil || rec.terminal != "" {
		return err
	}
	// The gateway closes a stream opened between a job's terminal state
	// change and its terminal event without ever sending that event; do
	// what a client must do then and ask for the state.
	return c.poll(rec)
}

// poll learns the verdict from GET /v1/jobs/{id}.
func (c *client) poll(rec *jobRecord) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + rec.id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var job sched.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return fmt.Errorf("decode job %s: %w", rec.id, err)
	}
	if job.State.Terminal() {
		rec.verdict = time.Now()
		rec.terminal = strings.ToLower(string(job.State))
		rec.polled = true
	}
	return nil
}
