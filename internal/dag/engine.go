package dag

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"ice/internal/telemetry"
	"ice/internal/trace"
	"ice/internal/workflow"
)

// NodeResult is the durable outcome of one node. It is what the
// journal checkpoints (as the task record's Output), what the cache
// stores, and what downstream nodes see as their resolved input.
type NodeResult struct {
	Node   string `json:"node"`
	Type   string `json:"type"`
	Cached bool   `json:"cached,omitempty"`
	// Digest is the content digest of this node's output: the
	// measurement SHA-256 for acquire/retrieve, the result-JSON hash
	// otherwise. It feeds dependents' cache keys.
	Digest string `json:"digest,omitempty"`
	// File is the measurement file name for acquire/retrieve nodes.
	File   string `json:"file,omitempty"`
	Output string `json:"output,omitempty"`
	// Analysis fields (analyze nodes).
	Points       int     `json:"points,omitempty"`
	AnodicPeakUA float64 `json:"anodic_peak_ua,omitempty"`
	// Classification fields (ml-classify nodes). ClassName is the
	// cross-path equality field ("" means not classified).
	Class     int    `json:"class,omitempty"`
	ClassName string `json:"class_name,omitempty"`
}

// Result summarises a whole DAG run.
type Result struct {
	Name string `json:"name"`
	// NodesRun counts nodes executed live this run.
	NodesRun int `json:"nodes_run"`
	// NodesCached counts nodes served from the content-keyed cache.
	NodesCached int `json:"nodes_cached"`
	// NodesRestored counts nodes replayed from the journal on resume.
	NodesRestored int `json:"nodes_restored"`
	// Nodes holds per-node results in deterministic (ID) order.
	Nodes []NodeResult `json:"nodes"`
}

// Invocation is everything an Executor needs to run one node.
type Invocation struct {
	Node *Node
	// Deps maps dependency IDs to their resolved results.
	Deps map[string]*NodeResult
	// Payload maps dependency IDs to raw bytes (retrieve output) for
	// nodes that consume measurement content.
	Payload map[string][]byte
	// OnMeasured fires when an acquire node's remote measurement
	// exists, marking the acquire→retrieve boundary where the
	// instrument gate can release.
	OnMeasured func(file string)
}

// Executor runs one node and returns its result, plus raw payload
// bytes for nodes (retrieve) whose output is content downstream nodes
// consume.
type Executor interface {
	RunNode(ctx context.Context, inv *Invocation) (*NodeResult, []byte, error)
}

// instrumentTypes holds exclusive instrument or liquid hardware, so
// the engine serialises them on the gate and on an internal mutex.
func isInstrumentType(t string) bool {
	return t == TypePyro || t == TypeFill || t == TypeAcquire
}

// cacheableTypes may be served from the content-keyed cache.
// Effectful control and liquid operations (pyro, fill) never are —
// skipping a dispense because "we dispensed this before" would be
// wrong on real hardware.
func isCacheableType(t string) bool {
	switch t {
	case TypeAcquire, TypeRetrieve, TypeAnalyze, TypeClassify:
		return true
	}
	return false
}

func classForType(t string) string {
	switch t {
	case TypePyro:
		return trace.ClassControl
	case TypeFill, TypeAcquire:
		return trace.ClassInstrument
	case TypeRetrieve:
		return trace.ClassData
	default:
		return trace.ClassAnalysis
	}
}

// Engine executes a validated Spec: topological parallel execution on
// a bounded worker pool, per-node JSONL checkpoints, content-keyed
// caching, and instrument-gate scoping to the nodes that need the
// device.
type Engine struct {
	Spec *Spec
	Exec Executor
	// Workers bounds concurrent node execution (default 4).
	Workers int
	// Journal receives workflow.TaskRecord JSONL checkpoints.
	Journal io.Writer
	// Cache, when set, enables content-keyed caching and payload
	// rehydration for resumed retrieve nodes.
	Cache *Cache
	// Gate, when set, is held while instrument nodes (pyro, fill,
	// acquire) run and released at the acquire→retrieve boundary once
	// no instrument nodes remain, so WAN retrieval overlaps the next
	// job's instrument time.
	Gate sync.Locker
	// Metrics receives dag.* counters and the cache hit-ratio gauge.
	Metrics *telemetry.Collector
	// TraceLabel tags per-node spans with the owning job.
	TraceLabel string
	// Restored holds journal records from a previous attempt; nodes
	// checkpointed OK there are replayed, not re-executed.
	Restored []workflow.TaskRecord

	mu       sync.Mutex
	results  map[string]*NodeResult
	payloads map[string][]byte
	// instMu serialises instrument nodes with each other even when
	// the worker pool would otherwise run them concurrently.
	instMu sync.Mutex
	// instLeft counts instrument nodes not yet finished; when it hits
	// zero the gate is released for good.
	instLeft int
	gk       gateKeeper
	journalW sync.Mutex
}

// gateKeeper makes gate release idempotent: the acquire→retrieve
// boundary releases early, the engine's final sweep releases at most
// once more.
type gateKeeper struct {
	mu   sync.Mutex
	gate sync.Locker
	held bool
}

func (g *gateKeeper) hold() {
	if g.gate == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.held {
		g.gate.Lock()
		g.held = true
	}
}

func (g *gateKeeper) release() {
	if g.gate == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.held {
		g.gate.Unlock()
		g.held = false
	}
}

// Run executes the DAG. The first node failure cancels the remainder
// (in-flight nodes drain; unstarted dependents are skipped) and is
// returned after the journal records it.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	e.Spec.normalize()
	if err := e.Spec.Validate(); err != nil {
		return nil, err
	}
	workers := e.Workers
	if workers <= 0 {
		workers = 4
	}
	byID := e.Spec.byID()
	e.results = make(map[string]*NodeResult, len(e.Spec.Nodes))
	e.payloads = make(map[string][]byte)
	e.gk.gate = e.Gate

	restored := e.restoredResults()
	for _, n := range e.Spec.Nodes {
		if isInstrumentType(n.Type) {
			if _, ok := restored[n.ID]; !ok {
				e.instLeft++
			}
		}
	}

	indeg := make(map[string]int, len(e.Spec.Nodes))
	children := make(map[string][]string, len(e.Spec.Nodes))
	for _, n := range e.Spec.Nodes {
		indeg[n.ID] = len(n.Needs)
		for _, dep := range n.Needs {
			children[dep] = append(children[dep], n.ID)
		}
	}

	res := &Result{Name: e.Spec.Name}
	var ready []string
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)

	type outcome struct {
		id  string
		err error
	}
	done := make(chan outcome)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer e.gk.release()

	running := 0
	finished := 0
	var firstErr error
	failed := make(map[string]bool)

	start := func(id string) {
		running++
		go func() {
			err := e.runNode(runCtx, byID[id], restored, res)
			done <- outcome{id: id, err: err}
		}()
	}

	for finished < len(e.Spec.Nodes) {
		for firstErr == nil && running < workers && len(ready) > 0 {
			id := ready[0]
			ready = ready[1:]
			start(id)
		}
		if running == 0 {
			// Nothing in flight: either a failure poisoned the ready
			// set, or dependents of failed nodes remain. Mark the
			// rest skipped and stop.
			break
		}
		o := <-done
		running--
		finished++
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dag: node %q: %w", o.id, o.err)
				cancel()
			}
			failed[o.id] = true
			continue
		}
		added := false
		for _, ch := range children[o.id] {
			indeg[ch]--
			if indeg[ch] == 0 && !failed[o.id] {
				ready = append(ready, ch)
				added = true
			}
		}
		if added {
			sort.Strings(ready)
		}
	}
	// Drain any stragglers so no goroutine outlives the engine.
	for running > 0 {
		o := <-done
		running--
		if o.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dag: node %q: %w", o.id, o.err)
		}
	}
	e.gk.release()

	// Journal unreached nodes as skipped so the record is complete.
	if firstErr != nil {
		for _, n := range e.Spec.Nodes {
			e.mu.Lock()
			_, done := e.results[n.ID]
			e.mu.Unlock()
			if !done && !failed[n.ID] {
				e.journal(n.ID, workflow.Skipped.String(), "", "")
			}
		}
	}

	e.mu.Lock()
	ids := make([]string, 0, len(e.results))
	for id := range e.results {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		res.Nodes = append(res.Nodes, *e.results[id])
	}
	e.mu.Unlock()

	if e.Metrics != nil {
		total := res.NodesRun + res.NodesCached
		if total > 0 {
			e.Metrics.Gauge("dag.cache.hit_ratio").Set(int64(res.NodesCached * 100 / total))
		}
	}
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// restoredResults decodes the journal records from a previous attempt
// into node results. Latest record per node wins; only OK records
// with a matching workflow name count.
func (e *Engine) restoredResults() map[string]*NodeResult {
	out := make(map[string]*NodeResult)
	for _, rec := range e.Restored {
		if rec.Workflow != e.Spec.Name || rec.TaskID == "" {
			continue
		}
		if rec.Status != workflow.OK.String() {
			delete(out, rec.TaskID)
			continue
		}
		var nr NodeResult
		if err := json.Unmarshal([]byte(rec.Output), &nr); err != nil {
			continue
		}
		out[rec.TaskID] = &nr
	}
	return out
}

// runNode executes (or restores, or cache-serves) one node and
// records the outcome.
func (e *Engine) runNode(ctx context.Context, n *Node, restored map[string]*NodeResult, res *Result) error {
	spanCtx, span := trace.Start(ctx, "dag."+n.ID, classForType(n.Type))
	if e.TraceLabel != "" {
		span.SetAttr("holder", e.TraceLabel)
	}
	span.SetAttr("node_type", n.Type)

	// Resolve dependency results and payloads.
	deps := make(map[string]*NodeResult, len(n.Needs))
	payload := make(map[string][]byte)
	e.mu.Lock()
	for _, dep := range n.Needs {
		deps[dep] = e.results[dep]
		if p, ok := e.payloads[dep]; ok {
			payload[dep] = p
		}
	}
	e.mu.Unlock()
	for _, dep := range n.Needs {
		if deps[dep] == nil {
			err := fmt.Errorf("dependency %q did not complete", dep)
			span.EndErr(err)
			return err
		}
	}
	// Retrieve payloads may be needed by analyze/classify nodes that
	// resumed past the retrieve: rehydrate from the blob store.
	for _, dep := range n.Needs {
		d := deps[dep]
		if d.Type == TypeRetrieve && payload[dep] == nil {
			if data, ok := e.Cache.GetBlob(d.Digest); ok {
				payload[dep] = data
			}
		}
	}

	// Journal replay: a node checkpointed OK on a previous attempt is
	// restored, not re-run — the crash-recovery exactly-once path.
	if prior, ok := restored[n.ID]; ok {
		if usable := e.restorable(n, prior); usable {
			span.SetAttr("restored", "true")
			e.commit(n, prior, nil, res, "restored")
			span.End()
			return nil
		}
	}

	key := e.cacheKeyFor(n, deps)
	if key != "" {
		if hit, ok := e.Cache.Lookup(key); ok {
			if e.usableHit(n, hit) {
				hit.Cached = true
				span.SetAttr("cached", "true")
				if e.Metrics != nil {
					e.Metrics.Counter("dag.nodes.cached").Inc()
				}
				e.journal(n.ID, workflow.Running.String(), "", "")
				e.commit(n, hit, nil, res, "cached")
				span.End()
				return nil
			}
		}
	}

	inv := &Invocation{Node: n, Deps: deps, Payload: payload}
	if isInstrumentType(n.Type) {
		e.instMu.Lock()
		defer e.instMu.Unlock()
		e.gk.hold()
		if n.Type == TypeAcquire {
			inv.OnMeasured = func(file string) {
				span.Event("measured", "file", file)
				e.instrumentDone(1)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		span.EndErr(err)
		return err
	}

	e.journal(n.ID, workflow.Running.String(), "", "")
	nr, data, err := e.Exec.RunNode(spanCtx, inv)
	if isInstrumentType(n.Type) && n.Type != TypeAcquire {
		e.instrumentDone(1)
	} else if n.Type == TypeAcquire && err != nil {
		// OnMeasured never fired; retire the slot so the gate is not
		// pinned by a failed acquisition.
		e.instrumentDone(1)
	}
	if err != nil {
		if e.Metrics != nil {
			e.Metrics.Counter("dag.nodes.failed").Inc()
		}
		e.journal(n.ID, workflow.Failed.String(), "", err.Error())
		span.EndErr(err)
		return err
	}
	nr.Node = n.ID
	nr.Type = n.Type
	if data != nil {
		// A payload-bearing node's digest is its content hash, and the
		// blob is written even for uncacheable runs: it is the
		// rehydration buffer for resumed downstream nodes.
		if e.Cache != nil {
			blobDigest, err := e.Cache.PutBlob(data)
			if err != nil {
				span.EndErr(err)
				return err
			}
			if nr.Digest == "" {
				nr.Digest = blobDigest
			}
		} else if nr.Digest == "" {
			nr.Digest = sha256Sum(data)
		}
	}
	if nr.Digest == "" {
		nr.Digest = resultDigest(nr)
	}
	if e.Metrics != nil {
		e.Metrics.Counter("dag.nodes.run").Inc()
	}
	if key != "" {
		if err := e.Cache.Store(key, nr); err != nil {
			span.EndErr(err)
			return err
		}
	}
	e.commit(n, nr, data, res, "run")
	span.End()
	return nil
}

// instrumentDone retires n instrument slots and releases the gate
// when none remain.
func (e *Engine) instrumentDone(n int) {
	e.mu.Lock()
	e.instLeft -= n
	left := e.instLeft
	e.mu.Unlock()
	if left <= 0 {
		e.gk.release()
	}
}

// restorable reports whether a journal-restored result can stand in
// for running the node. Retrieve nodes additionally need their bytes
// back for downstream consumers — served from the content-keyed blob
// store; without the blob the node re-runs.
func (e *Engine) restorable(n *Node, prior *NodeResult) bool {
	if prior.Type != n.Type {
		return false
	}
	if n.Type == TypeRetrieve {
		_, ok := e.Cache.GetBlob(prior.Digest)
		return ok
	}
	return true
}

// usableHit applies the same payload-availability rule to cache hits.
func (e *Engine) usableHit(n *Node, hit *NodeResult) bool {
	if hit.Type != n.Type {
		return false
	}
	if n.Type == TypeRetrieve {
		_, ok := e.Cache.GetBlob(hit.Digest)
		return ok
	}
	return true
}

// cacheKeyFor derives a node's content key, or "" when the node is
// not cacheable (by type or opt-out) or no cache is configured.
func (e *Engine) cacheKeyFor(n *Node, deps map[string]*NodeResult) string {
	if e.Cache == nil || n.NoCache || !isCacheableType(n.Type) {
		return ""
	}
	byID := e.Spec.byID()
	inputs := make([]string, 0, len(deps))
	for id, d := range deps {
		if isCacheableType(d.Type) {
			// Data-carrying dependency: its content digest is the input.
			inputs = append(inputs, d.Digest)
		} else if dn := byID[id]; dn != nil {
			// Effectful dependency (pyro, fill): what matters is the
			// operation performed, not its run-varying output (status
			// strings, temperature readings), so the spec digest stands in.
			inputs = append(inputs, "spec:"+dn.SpecDigest())
		}
	}
	return CacheKey(n.SpecDigest(), inputs)
}

// commit records a finished node: result map, payload buffer,
// counters, and the OK checkpoint (live and cached runs only —
// restored nodes already have their record in the journal).
func (e *Engine) commit(n *Node, nr *NodeResult, data []byte, res *Result, how string) {
	e.mu.Lock()
	e.results[n.ID] = nr
	if data != nil {
		e.payloads[n.ID] = data
	}
	switch how {
	case "run":
		res.NodesRun++
	case "cached":
		res.NodesCached++
	case "restored":
		res.NodesRestored++
	}
	e.mu.Unlock()
	if how != "restored" {
		out, _ := json.Marshal(nr)
		e.journal(n.ID, workflow.OK.String(), string(out), "")
	}
	if how == "restored" && isInstrumentType(n.Type) {
		// Restored instrument nodes were never counted into instLeft.
		return
	}
	if how == "cached" && isInstrumentType(n.Type) {
		e.instrumentDone(1)
	}
}

// journal emits one workflow.TaskRecord line. Writes are serialised;
// the underlying writer (a jsonl.Log via the scheduler's tee) is also
// safe for concurrent use.
func (e *Engine) journal(taskID, status, output, errMsg string) {
	if e.Journal == nil {
		return
	}
	rec := workflow.TaskRecord{
		Workflow: e.Spec.Name,
		TaskID:   taskID,
		Status:   status,
		Output:   output,
		Error:    errMsg,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	e.journalW.Lock()
	defer e.journalW.Unlock()
	e.Journal.Write(append(data, '\n'))
}

// resultDigest hashes a node result's canonical JSON; used as the
// content digest for nodes without an inherent payload digest.
func resultDigest(nr *NodeResult) string {
	c := *nr
	c.Cached = false
	data, _ := json.Marshal(&c)
	sum := sha256Sum(data)
	return sum
}
