// Package testutil holds small helpers shared between the repo's
// tests and the icebench harness (bench/), never the daemons.
package testutil

import (
	"fmt"
	"runtime"
	"time"
)

// WaitGoroutines waits (up to wait) for the live goroutine count to
// settle back to at most baseline+slack after a run's teardown, and
// returns an error naming the counts if it never does. It is the
// shared leak-bound assertion of the health, DAG and lab-registry
// tests and of icebench: capture runtime.NumGoroutine() before the
// run starts, tear everything down, then call this.
func WaitGoroutines(baseline, slack int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d live against baseline %d (+%d allowed)", n, baseline, slack)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
