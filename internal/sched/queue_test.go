package sched

import (
	"fmt"
	"math/rand"
	"testing"
)

func mkJob(id, tenant string, priority int) *Job {
	return &Job{ID: id, Tenant: tenant, Spec: JobSpec{Tenant: tenant, Kind: KindCV, Priority: priority}}
}

func TestQueueCapacityRejects(t *testing.T) {
	q := newFairQueue(3)
	for i := 0; i < 3; i++ {
		if !push(q, mkJob(fmt.Sprintf("j-%d", i), "a", 0), 1) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if push(q, mkJob("j-overflow", "a", 0), 1) {
		t.Fatal("push beyond capacity accepted")
	}
	// Draining one slot re-admits.
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	// A reserved place counts against capacity until it is given back.
	if !q.Reserve() {
		t.Fatal("reserve after drain rejected")
	}
	if push(q, mkJob("j-over-reserved", "a", 0), 1) {
		t.Fatal("push into a reserved place accepted")
	}
	q.Unreserve()
	if !push(q, mkJob("j-readmit", "a", 0), 1) {
		t.Fatal("push after unreserve rejected")
	}
}

// push reserves a place and fills it, reporting false when Reserve
// refuses.
func push(q *fairQueue, job *Job, weight float64) bool {
	if !q.Reserve() {
		return false
	}
	q.Push(job, weight)
	return true
}

// TestQueueFairShareNoStarvation is the ISSUE's acceptance property: a
// tenant submitting 10× the jobs cannot starve the minority tenant.
// With equal weights, stride scheduling interleaves them 1:1 until the
// light tenant drains, so every light job is dispatched within the
// first 2×k pops.
func TestQueueFairShareNoStarvation(t *testing.T) {
	q := newFairQueue(128)
	for i := 0; i < 50; i++ {
		push(q, mkJob(fmt.Sprintf("heavy-%02d", i), "heavy", 0), 1)
	}
	for i := 0; i < 5; i++ {
		push(q, mkJob(fmt.Sprintf("light-%02d", i), "light", 0), 1)
	}
	lastLight := -1
	for i := 0; i < 55; i++ {
		job, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if job.Tenant == "light" {
			lastLight = i
		}
	}
	if lastLight > 10 {
		t.Fatalf("light tenant's final job dispatched at position %d; 10:1 imbalance starved it", lastLight)
	}
}

// TestQueueWeightedShare verifies weights skew the interleave: a
// weight-3 tenant should receive about three dispatches per dispatch
// of a weight-1 tenant.
func TestQueueWeightedShare(t *testing.T) {
	q := newFairQueue(256)
	for i := 0; i < 60; i++ {
		push(q, mkJob(fmt.Sprintf("big-%02d", i), "big", 0), 3)
		push(q, mkJob(fmt.Sprintf("small-%02d", i), "small", 0), 1)
	}
	big := 0
	for i := 0; i < 40; i++ {
		job, _ := q.Pop()
		if job.Tenant == "big" {
			big++
		}
	}
	// Exactly 3:1 in steady state; allow slack for the initial ties.
	if big < 26 || big > 34 {
		t.Fatalf("weight-3 tenant got %d of first 40 dispatches, want ~30", big)
	}
}

func TestQueuePriorityWithinTenant(t *testing.T) {
	q := newFairQueue(16)
	push(q, mkJob("low-1", "a", 1), 1)
	push(q, mkJob("high", "a", 5), 1)
	push(q, mkJob("low-2", "a", 1), 1)
	var got []string
	for i := 0; i < 3; i++ {
		job, _ := q.Pop()
		got = append(got, job.ID)
	}
	want := []string{"high", "low-1", "low-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", got, want)
		}
	}
}

// TestQueueIdleTenantCannotBankCredit: a tenant that idles while
// another drains the queue must not re-enter with an ancient pass and
// monopolise dispatch.
func TestQueueIdleTenantCannotBankCredit(t *testing.T) {
	q := newFairQueue(128)
	// Tenant a alone dispatches 20 jobs; its pass advances to 20.
	for i := 0; i < 20; i++ {
		push(q, mkJob(fmt.Sprintf("a-%02d", i), "a", 0), 1)
	}
	for i := 0; i < 20; i++ {
		q.Pop()
	}
	// Tenant b was idle the whole time. Now both submit 10.
	for i := 0; i < 10; i++ {
		push(q, mkJob(fmt.Sprintf("a2-%02d", i), "a", 0), 1)
		push(q, mkJob(fmt.Sprintf("b-%02d", i), "b", 0), 1)
	}
	bRun := 0
	for i := 0; i < 10; i++ {
		job, _ := q.Pop()
		if job.Tenant == "b" {
			bRun++
		}
	}
	if bRun < 3 || bRun > 7 {
		t.Fatalf("idle tenant b got %d of first 10 dispatches after re-entry, want ~5", bRun)
	}
}

func TestQueueRemoveAndConservation(t *testing.T) {
	q := newFairQueue(256)
	rng := rand.New(rand.NewSource(7))
	pushed := 0
	var victim string
	for i := 0; i < 100; i++ {
		tenant := fmt.Sprintf("t%d", rng.Intn(4))
		id := fmt.Sprintf("%s-j%d", tenant, i)
		if push(q, mkJob(id, tenant, rng.Intn(10)), float64(1+rng.Intn(3))) {
			pushed++
			if i == 42 {
				victim = id
			}
		}
	}
	if !q.Remove(victim) {
		t.Fatalf("queued job %s not removable", victim)
	}
	popped := 0
	for q.Len() > 0 {
		if _, ok := q.Pop(); ok {
			popped++
		}
	}
	if popped != pushed-1 {
		t.Fatalf("conservation: pushed %d, removed 1, popped %d", pushed, popped)
	}
	if q.Remove("never-existed") {
		t.Fatal("removed a job that was never queued")
	}
}

func TestQueueCloseUnblocksAndKeepsBacklog(t *testing.T) {
	q := newFairQueue(8)
	push(q, mkJob("j-1", "a", 0), 1)
	done := make(chan bool)
	go func() {
		q.Pop() // takes j-1 (or j-2, whichever lands first)
		_, ok := q.Pop()
		done <- ok
	}()
	push(q, mkJob("j-2", "a", 0), 1)
	// j-2 may or may not be taken before Close lands; what matters is
	// that Pop returns false after Close instead of hanging.
	q.Close()
	if ok := <-done; ok {
		// The second Pop legitimately got j-2 before Close; a third Pop
		// must now report closed.
		if _, ok := q.Pop(); ok {
			t.Fatal("Pop returned a job after Close")
		}
	}
	if push(q, mkJob("j-3", "a", 0), 1) {
		t.Fatal("Push accepted after Close")
	}
}
