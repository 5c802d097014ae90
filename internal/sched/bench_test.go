package sched

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeTerminalHistory writes a WAL holding n finished jobs, so a
// scheduler opened over dir starts with n terminal entries in its job
// table: the state of a gateway that has served n jobs.
func writeTerminalHistory(tb testing.TB, dir string, n int) {
	tb.Helper()
	f, err := os.Create(filepath.Join(dir, WALFileName))
	if err != nil {
		tb.Fatal(err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spec := JobSpec{Tenant: "t1", Kind: KindCV, Points: 600}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("j-%06d", i)
		for _, rec := range []WALRecord{
			{Seq: uint64(2*i - 1), Job: id, Tenant: spec.Tenant, State: StatePending, Spec: &spec},
			{Seq: uint64(2 * i), Job: id, State: StateDone, Result: json.RawMessage(`{"ok":true}`)},
		} {
			if err := enc.Encode(rec); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSubmit times one admission (validation, quota, ID, spans,
// queue push, fsynced PENDING record) on an idle null-runner scheduler
// with and without a job history behind it. The two must read alike:
// admission does not depend on how many jobs came before.
func BenchmarkSubmit(b *testing.B) {
	for _, history := range []int{0, 20000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			dir := b.TempDir()
			writeTerminalHistory(b, dir, history)
			s, err := New(Config{Dir: dir, Health: HealthConfig{Disabled: true}})
			if err != nil {
				b.Fatal(err)
			}
			s.SetRunner(nullRunner)
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			if got := len(s.Jobs()); got != history {
				b.Fatalf("replayed %d jobs, want %d", got, history)
			}
			spec := JobSpec{Tenant: "t1", Kind: KindCV, Points: 600}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job, err := s.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				// Each job is awaited off the clock, so the queue and the
				// tenant's quota are empty for the next submit.
				b.StopTimer()
				if _, err := s.WaitTerminal(context.Background(), job.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkCompleteFanout times a terminal transition (fsynced record,
// state change, terminal event, span close-out, fan-out, close) with
// subs live subscribers on the job.
func BenchmarkCompleteFanout(b *testing.B) {
	for _, subs := range []int{1, 8} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			s, err := New(Config{Dir: b.TempDir(), Health: HealthConfig{Disabled: true}})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			result := json.RawMessage(`{"ok":true}`)
			live := make([]<-chan Event, subs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				job := Job{ID: fmt.Sprintf("j-%06d", i+1), Tenant: "t1", State: StateRunning}
				s.mu.Lock()
				s.jobs[job.ID] = &jobEntry{job: job}
				s.live[job.Tenant]++
				s.mu.Unlock()
				for k := range live {
					if _, live[k], _, err = s.Events(job.ID); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				s.complete(job.ID, StateDone, result, nil)
				b.StopTimer()
				for _, ch := range live {
					if ev, ok := <-ch; !ok || ev.Type != "done" {
						b.Fatalf("subscriber got %+v (open %v), want the done event", ev, ok)
					}
					if _, ok := <-ch; ok {
						b.Fatal("subscriber channel still open after the terminal event")
					}
				}
				b.StartTimer()
			}
		})
	}
}

var benchSpec JobSpec

// BenchmarkDecodeJobSpec times the strict decode + validation of a cv
// request and of the shipped A–E graph as a dag request.
func BenchmarkDecodeJobSpec(b *testing.B) {
	graph, err := os.ReadFile(filepath.Join("..", "..", "examples", "dag", "cv_classic.json"))
	if err != nil {
		b.Fatal(err)
	}
	dagBody, err := json.Marshal(JobSpec{Tenant: "t1", Kind: KindDAG, DAG: graph})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"cv", []byte(`{"tenant": "t1", "kind": "cv", "scan_rate_mvs": 50, "points": 600}`)},
		{"dag", dagBody},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchSpec, err = DecodeJobSpec(c.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
