package sched

import (
	"sort"
	"sync"
)

// fairQueue is a bounded multi-tenant job queue with stride-scheduled
// fair sharing: each tenant carries a virtual-time "pass" that advances
// by 1/weight per dispatched job, and Pop always serves the active
// tenant with the smallest pass. A tenant submitting 10× more jobs
// therefore cannot starve a light tenant — the light tenant's pass
// stays behind and its jobs interleave at its weighted share. Within a
// tenant, higher Priority pops first, FIFO among equals.
type fairQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	capacity int
	size     int
	// reserved counts places Reserve claimed for jobs not pushed yet.
	reserved int
	seq      int64
	closed   bool
	tenants  map[string]*tenantQueue
}

// tenantQueue is one tenant's backlog plus its stride-scheduling state.
type tenantQueue struct {
	weight float64
	// pass is the tenant's virtual time; the active tenant with the
	// smallest pass is served next.
	pass float64
	jobs []queued
}

// queued is one backlog entry.
type queued struct {
	job *Job
	seq int64
}

func newFairQueue(capacity int) *fairQueue {
	if capacity <= 0 {
		capacity = 64
	}
	q := &fairQueue{capacity: capacity, tenants: make(map[string]*tenantQueue)}
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// Len returns the number of queued jobs.
func (q *fairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Reserve claims a place for a job the caller pushes once its
// transition is journaled, so no worker sees the job before its record
// commits. It reports false when the queue is closed or every place is
// queued or reserved: the caller turns that into a retry-after
// rejection rather than blocking admission.
func (q *fairQueue) Reserve() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.size+q.reserved >= q.capacity {
		return false
	}
	q.reserved++
	return true
}

// Unreserve gives back a place whose job will not be pushed.
func (q *fairQueue) Unreserve() {
	q.mu.Lock()
	q.reserved--
	q.mu.Unlock()
}

// Push fills a place Reserve claimed with a job for its tenant at the
// given fair-share weight. A job pushed after Close stays in the
// backlog, where Pop no longer reaches it.
func (q *fairQueue) Push(job *Job, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reserved--
	tq, ok := q.tenants[job.Tenant]
	if !ok {
		tq = &tenantQueue{}
		q.tenants[job.Tenant] = tq
	}
	tq.weight = weight
	if len(tq.jobs) == 0 {
		// A tenant re-entering after idling resumes at the current
		// virtual time instead of spending banked credit in a burst.
		tq.pass = maxf(tq.pass, q.minActivePassLocked())
	}
	q.seq++
	entry := queued{job: job, seq: q.seq}
	// Insert in (priority desc, seq asc) order; bursts are small, so a
	// linear scan beats a heap in clarity and allocation.
	i := sort.Search(len(tq.jobs), func(i int) bool {
		return tq.jobs[i].job.Spec.Priority < job.Spec.Priority
	})
	tq.jobs = append(tq.jobs, queued{})
	copy(tq.jobs[i+1:], tq.jobs[i:])
	tq.jobs[i] = entry
	q.size++
	q.notEmpty.Signal()
}

// Pop blocks until a job is available or the queue is closed, then
// dequeues the fair-share winner. After Close, Pop returns false even
// with a backlog — an un-dispatched job stays PENDING in the WAL and
// re-enqueues on the next start instead of racing a shutdown.
func (q *fairQueue) Pop() (job *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.closed || q.size == 0 {
		return nil, false
	}
	var winner *tenantQueue
	for _, tq := range q.tenants {
		if len(tq.jobs) == 0 {
			continue
		}
		if winner == nil || tq.pass < winner.pass {
			winner = tq
		}
	}
	entry := winner.jobs[0]
	copy(winner.jobs, winner.jobs[1:])
	winner.jobs[len(winner.jobs)-1] = queued{}
	winner.jobs = winner.jobs[:len(winner.jobs)-1]
	winner.pass += 1 / winner.weight
	q.size--
	return entry.job, true
}

// Remove drops a queued job by ID (cancellation before dispatch). It
// reports whether the job was found in the backlog.
func (q *fairQueue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, tq := range q.tenants {
		for i, entry := range tq.jobs {
			if entry.job.ID == id {
				copy(tq.jobs[i:], tq.jobs[i+1:])
				tq.jobs[len(tq.jobs)-1] = queued{}
				tq.jobs = tq.jobs[:len(tq.jobs)-1]
				q.size--
				return true
			}
		}
	}
	return false
}

// Close wakes all blocked Pops; subsequent Pushes are refused.
func (q *fairQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
}

// minActivePassLocked returns the smallest pass among tenants with a
// backlog, or 0 when none are active.
func (q *fairQueue) minActivePassLocked() float64 {
	min, found := 0.0, false
	for _, tq := range q.tenants {
		if len(tq.jobs) == 0 {
			continue
		}
		if !found || tq.pass < min {
			min, found = tq.pass, true
		}
	}
	return min
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
