// Package cluster federates one icegated gateway per facility into a
// partition-tolerant whole, the cross-facility control plane the
// paper's two-site ecosystem needs once a single scheduler process is
// no longer allowed to be a single point of failure.
//
// Each Node owns its local instruments and runs the existing
// sched.Scheduler underneath, with three federation layers on top:
//
//   - Routing: a job may be submitted to any gateway; the spec's
//     facility field (default: the receiving gateway's own) decides
//     where it runs, and the origin gateway forwards the submission
//     and proxies status/SSE from the owner. Job IDs are prefixed
//     with the admitting facility ("facA-000007"), so any node can
//     route a query from the ID alone.
//
//   - Replication: every WAL record and every workflow checkpoint
//     line is shipped to the peer(s) synchronously — an admission is
//     not confirmed, and a workflow does not cross a task boundary,
//     until the peer has fsynced the copy. When a peer is down the
//     stream degrades to a backlog that catches up on reconnect, so
//     a partition never blocks local work.
//
//   - Failover: peers heartbeat each other; when a gateway goes
//     silent past the failover threshold, a peer probes the silent
//     facility's lab to tell a crashed gateway from a severed WAN.
//     Only if the lab answers — gateway dead, facility alive — does
//     the peer raise the term, replay the replicated WAL, install
//     the replicated checkpoint journals and adopt the dead
//     gateway's queued and running jobs, which then resume exactly
//     once through the normal workflow Restore path. If the lab is
//     unreachable too, it is a partition: the peer serves 503 +
//     Retry-After for that facility, records a cluster.partition
//     trace event, and — crucially — adopts nothing, so an
//     instrument lease can never be live on both sides of the split.
//
// On heal the sides reconcile deterministically: replication
// backlogs flush (replicas deduplicate by replication sequence), WAL
// merges order by sequence number with the higher term winning a
// duplicated slot, and last-writer-wins applies only to idempotent
// status records.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ice/internal/jsonl"
	"ice/internal/sched"
	"ice/internal/telemetry"
	"ice/internal/trace"
)

// Peer describes one remote facility's gateway.
type Peer struct {
	// Facility is the peer's home facility name.
	Facility string
	// URL is the peer gateway's base URL ("http://gw-b:9700").
	URL string
	// LabAddr is an address inside the peer's facility (its control
	// agent or lab) dialed as the failover fencing probe: this node
	// adopts the peer's jobs only when the gateway is silent but the
	// lab still answers. Empty with no Probe means the probe always
	// fails, i.e. the node treats every silence as a partition and
	// never adopts — the safe default.
	LabAddr string
	// Probe overrides the LabAddr dial (tests and in-process drills).
	Probe func(ctx context.Context) error
}

// Config parameterises a Node.
type Config struct {
	// Facility is this node's home facility name (required; becomes
	// the scheduler's job-ID prefix).
	Facility string
	// Peers are the other facilities' gateways.
	Peers []Peer
	// Sched configures the underlying scheduler. Dir is required;
	// IDPrefix and WALMirror are owned by the node.
	Sched sched.Config
	// NewRunner builds the executor that drives one facility's
	// instruments (required). It is called for the home facility at
	// startup and lazily for a peer facility on failover; the
	// returned runner should be a LabRunner wired with
	// facility-scoped lease resources and the node's MirrorJournal.
	NewRunner func(n *Node, facility string) sched.Runner
	// Transport carries all peer HTTP traffic (heartbeats,
	// replication, proxying). Defaults to http.DefaultTransport;
	// netsim drills install a simulated-WAN dialer.
	Transport http.RoundTripper
	// Dial is used for LabAddr probes (default: net.DialTimeout tcp).
	Dial func(addr string) (net.Conn, error)
	// HeartbeatEvery paces peer heartbeats (default 500ms).
	HeartbeatEvery time.Duration
	// FailoverAfter is how long a peer may be silent before the node
	// probes and, if fencing allows, adopts (default 4 heartbeats).
	FailoverAfter time.Duration
	// ReplTimeout bounds one replication/heartbeat round trip
	// (default 2s).
	ReplTimeout time.Duration
	// RetryAfter is the back-off hint attached to 503 responses for
	// unreachable facilities (default 2s).
	RetryAfter time.Duration
	// QuarantineHold is how long a dead peer's last-advertised
	// instrument quarantine blocks adopting its jobs (default 30s):
	// failing over onto a lab whose potentiostat was wedged minutes ago
	// just re-runs the jobs into the same wall. After the hold the
	// fencing probe alone gates adoption again.
	QuarantineHold time.Duration
}

// peerState is the node's live view of one peer.
type peerState struct {
	peer  Peer
	proxy *httputil.ReverseProxy

	lastSeen    time.Time
	everSeen    bool
	reachable   bool
	partitioned bool
	adopted     bool
	term        uint64
	leading     map[string]uint64
	// quarantined is the peer's last-advertised sick-instrument list;
	// quarantinedAt stamps when it was heard. A dead gateway's stale
	// advertisement holds back adoption for QuarantineHold.
	quarantined   []string
	quarantinedAt time.Time
	adoptBlocked  bool
}

// Node is one facility's gateway inside the federation.
type Node struct {
	cfg     Config
	sch     *sched.Scheduler
	gw      *sched.Gateway
	mux     *http.ServeMux
	client  *http.Client
	rep     *replicator
	store   *replicaStore
	metrics *telemetry.Collector
	tracer  *trace.Tracer
	span    *trace.Span

	mu          sync.Mutex
	started     bool
	stopped     bool
	startedAt   time.Time
	leading     map[string]uint64
	maxHomeTerm uint64
	peers       map[string]*peerState
	runners     map[string]sched.Runner

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewNode builds the node: scheduler (with facility-prefixed job IDs
// and the replication mirror installed), gateway, replica store, and
// peer table. Call Start to claim leadership and begin heartbeats.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Facility == "" {
		return nil, fmt.Errorf("cluster: config needs a facility name")
	}
	if cfg.NewRunner == nil {
		return nil, fmt.Errorf("cluster: config needs a runner factory")
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, time.Second)
		}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.FailoverAfter <= 0 {
		cfg.FailoverAfter = 4 * cfg.HeartbeatEvery
	}
	if cfg.ReplTimeout <= 0 {
		cfg.ReplTimeout = 2 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.QuarantineHold <= 0 {
		cfg.QuarantineHold = 30 * time.Second
	}

	n := &Node{
		cfg:     cfg,
		client:  &http.Client{Transport: cfg.Transport},
		leading: make(map[string]uint64),
		peers:   make(map[string]*peerState),
		runners: make(map[string]sched.Runner),
		stopCh:  make(chan struct{}),
	}
	n.rep = newReplicator(n.client, cfg.Facility, cfg.ReplTimeout)
	store, err := openReplicaStore(filepath.Join(cfg.Sched.Dir, "replica"))
	if err != nil {
		return nil, err
	}
	n.store = store

	for _, p := range cfg.Peers {
		if p.Facility == "" || p.URL == "" {
			return nil, fmt.Errorf("cluster: peer needs facility and url")
		}
		target, err := url.Parse(p.URL)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %s url: %w", p.Facility, err)
		}
		proxy := httputil.NewSingleHostReverseProxy(target)
		proxy.Transport = cfg.Transport
		// SSE streams must flush per event, not per buffer.
		proxy.FlushInterval = -1
		ps := &peerState{peer: p, proxy: proxy, leading: make(map[string]uint64)}
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			n.writeUnavailable(w, fmt.Sprintf("facility %s unreachable: %v", p.Facility, err))
		}
		n.peers[p.Facility] = ps
		n.rep.addPeer(p.Facility, strings.TrimSuffix(p.URL, "/"))
	}

	scfg := cfg.Sched
	scfg.IDPrefix = cfg.Facility
	scfg.WALMirror = func(rec sched.WALRecord) error {
		return n.rep.mirrorWAL(rec)
	}
	// Health gating is facility-scoped: the breakers watch this node's
	// own instruments (the facility-prefixed lease names its LabRunner
	// gates on), and only home-facility jobs are gated by them —
	// adopted foreign jobs drive the peer's lab, whose health the peer
	// advertised in heartbeats instead.
	if !scfg.Health.Disabled && scfg.Health.Instruments == nil {
		home := FacilityResources(cfg.Facility)
		scfg.Health.Instruments = map[string][]string{
			"sp200": {home[0]},
			"jkem":  {home[1]},
		}
	}
	if scfg.Health.Applies == nil {
		homeFac := cfg.Facility
		scfg.Health.Applies = func(spec sched.JobSpec) bool {
			return spec.Facility == "" || spec.Facility == homeFac
		}
	}
	s, err := sched.New(scfg)
	if err != nil {
		return nil, err
	}
	n.sch = s
	n.metrics = s.Metrics()
	n.tracer = s.Tracer()
	s.SetRunner(&dispatchRunner{n: n})
	n.gw = sched.NewGateway(s)
	n.gw.SetReady(n.Ready)
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("POST /v1/cluster/heartbeat", n.handleHeartbeat)
	n.mux.HandleFunc("POST /v1/cluster/replicate", n.handleReplicate)
	n.mux.HandleFunc("GET /v1/cluster/state", n.handleState)
	n.mux.HandleFunc("/", n.route)
	return n, nil
}

// Scheduler returns the underlying scheduler.
func (n *Node) Scheduler() *sched.Scheduler { return n.sch }

// Gateway returns the underlying single-facility gateway.
func (n *Node) Gateway() *sched.Gateway { return n.gw }

// Facility returns the node's home facility name.
func (n *Node) Facility() string { return n.cfg.Facility }

// ServeHTTP implements http.Handler: the full federated API surface
// (the gateway's /v1/* plus /v1/cluster/*, with cross-facility
// requests routed or proxied).
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// Start joins the cluster (querying peers so jobs a peer already
// adopted are disowned rather than double-run), claims home-facility
// leadership when uncontested, starts the scheduler, and begins
// heartbeats.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.started || n.stopped {
		n.mu.Unlock()
		return fmt.Errorf("cluster: node already started or stopped")
	}
	n.started = true
	n.startedAt = time.Now()
	n.mu.Unlock()

	n.span = n.tracer.StartTrace("", "cluster "+n.cfg.Facility, trace.ClassCluster)
	n.span.SetAttr("facility", n.cfg.Facility)

	// Join: learn who (if anyone) currently leads our facility. A peer
	// still finishing jobs it adopted from our previous incarnation
	// keeps the leadership until those drain; we disown them locally
	// and route around ourselves until the handback.
	adoptedElsewhere := make(map[string]bool)
	var maxHomeTerm uint64
	for _, ps := range n.snapshotPeers() {
		st, err := n.fetchState(ps.peer)
		if err != nil {
			continue
		}
		n.observeState(ps.peer.Facility, st)
		if t, ok := st.Leading[n.cfg.Facility]; ok {
			if t > maxHomeTerm {
				maxHomeTerm = t
			}
			for _, id := range st.Adopted[n.cfg.Facility] {
				adoptedElsewhere[id] = true
			}
		}
	}
	for _, job := range n.sch.Recovered() {
		if adoptedElsewhere[job.ID] {
			n.sch.Disown(job.ID)
			n.span.Event("cluster.disown", "job", job.ID)
		}
	}

	n.mu.Lock()
	contested := false
	for _, ps := range n.peers {
		if _, ok := ps.leading[n.cfg.Facility]; ok {
			contested = true
		}
	}
	if !contested {
		n.claimHomeLocked(maxHomeTerm)
	}
	n.mu.Unlock()

	n.runnerFor(n.cfg.Facility)
	if err := n.sch.Start(); err != nil {
		return err
	}
	n.updateGauges()
	n.wg.Add(1)
	go n.monitor()
	return nil
}

// claimHomeLocked takes home-facility leadership at a term above
// every term observed for it so far (ours or an adopter's).
func (n *Node) claimHomeLocked(observed uint64) {
	term := n.sch.WAL().Term()
	if observed > term {
		term = observed
	}
	term++
	n.leading[n.cfg.Facility] = term
	n.sch.WAL().SetTerm(term)
}

// Stop shuts the node down gracefully: heartbeats stop, the
// scheduler drains, replica files close, the cluster span ends.
func (n *Node) Stop() {
	n.shutdown(false)
}

// Kill simulates a gateway crash (kill -9) for failover drills: the
// scheduler abandons in-flight work without completion records and
// no goodbye is said to the peers — they must detect the silence.
func (n *Node) Kill() {
	n.shutdown(true)
}

func (n *Node) shutdown(kill bool) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stopCh)
	n.wg.Wait()
	if kill {
		n.sch.Kill()
	} else {
		n.sch.Stop()
	}
	n.store.Close()
	if kill {
		n.span.EndErr(fmt.Errorf("gateway killed"))
	} else {
		n.span.End()
	}
}

// Ready implements the gateway's readiness provider.
func (n *Node) Ready() sched.ReadyStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	term, leads := n.leading[n.cfg.Facility]
	role := "replica"
	if leads {
		role = "leader"
	}
	peers := make(map[string]bool, len(n.peers))
	for fac, ps := range n.peers {
		peers[fac] = ps.reachable
	}
	return sched.ReadyStatus{
		Ready:          leads,
		Role:           role,
		Facility:       n.cfg.Facility,
		Term:           term,
		ReplicationLag: n.rep.lag(),
		Peers:          peers,
	}
}

// updateGauges publishes the node's federation state as metric
// gauges; /v1/readyz and /v1/metrics read the same numbers.
func (n *Node) updateGauges() {
	st := n.Ready()
	var lead int64
	if st.Role == "leader" {
		lead = 1
	}
	var reach int64
	for _, ok := range st.Peers {
		if ok {
			reach++
		}
	}
	n.metrics.Gauge("cluster.leader").Set(lead)
	n.metrics.Gauge("cluster.term").Set(int64(st.Term))
	n.metrics.Gauge("cluster.replication.lag").Set(st.ReplicationLag)
	n.metrics.Gauge("cluster.peers.reachable").Set(reach)
	if sup := n.sch.Health(); sup != nil {
		n.metrics.Gauge("cluster.quarantined").Set(int64(len(sup.QuarantinedList())))
	}
}

// MirrorJournal replicates one workflow checkpoint line; LabRunners
// built by NewRunner install it so a peer can resume an adopted job
// from the exact task boundary the dead gateway reached.
func (n *Node) MirrorJournal(jobID string, line []byte) error {
	cp := append([]byte(nil), line...)
	return n.rep.mirrorJournal(jobID, cp)
}

// FacilityResources returns the lease resource names for a
// facility's instruments — facility-scoped so an adopted foreign
// job's gate never collides with a local job's in the lease table.
func FacilityResources(facility string) []string {
	return []string{
		facility + "/" + sched.ResourceSP200,
		facility + "/" + sched.ResourceJKem,
	}
}

// runnerFor returns (building on first use) the executor for one
// facility's instruments.
func (n *Node) runnerFor(facility string) sched.Runner {
	n.mu.Lock()
	if r, ok := n.runners[facility]; ok {
		n.mu.Unlock()
		return r
	}
	n.mu.Unlock()
	r := n.cfg.NewRunner(n, facility)
	n.mu.Lock()
	defer n.mu.Unlock()
	if prior, ok := n.runners[facility]; ok {
		return prior
	}
	n.runners[facility] = r
	return r
}

// dispatchRunner routes each dispatched job to its facility's
// executor (adopted foreign jobs drive the foreign facility's
// instruments through the connector NewRunner built for it).
type dispatchRunner struct{ n *Node }

// Run implements sched.Runner.
func (d *dispatchRunner) Run(ctx context.Context, job sched.Job, emit func(string, string)) (json.RawMessage, error) {
	fac := job.Spec.Facility
	if fac == "" {
		fac = d.n.cfg.Facility
	}
	return d.n.runnerFor(fac).Run(ctx, job, emit)
}

// snapshotPeers copies the peer list for lock-free iteration.
func (n *Node) snapshotPeers() []*peerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*peerState, 0, len(n.peers))
	for _, ps := range n.peers {
		out = append(out, ps)
	}
	return out
}

// facilityOfJob extracts the admitting facility from a job ID
// ("facA-000007" → "facA").
func facilityOfJob(id string) string {
	if i := strings.LastIndexByte(id, '-'); i > 0 {
		return id[:i]
	}
	return ""
}

// installJournal writes an adopted job's replicated checkpoint lines,
// fsynced, into the scheduler's state dir, where the LabRunner's
// Restore path expects them. The replica holds the job's whole journal,
// so any local copy is replaced.
func (n *Node) installJournal(jobID string, lines [][]byte) error {
	if len(lines) == 0 {
		return nil
	}
	var buf []byte
	for _, l := range lines {
		buf = append(buf, l...)
		if len(l) > 0 && l[len(l)-1] != '\n' {
			buf = append(buf, '\n')
		}
	}
	path := filepath.Join(n.sch.Dir(), jobID+".journal")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	journal, err := jsonl.Open(path, nil)
	if err != nil {
		return err
	}
	if _, err := journal.Write(buf); err != nil {
		journal.Close()
		return err
	}
	return journal.Close()
}
