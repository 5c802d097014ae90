package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"ice/internal/sched"
)

// Job kinds as the generator and the output checks see them. The
// program under test sees only the spec bodies.
const (
	kindCV       = "cv"
	kindDAGHit   = "dag-hit"
	kindDAGMiss  = "dag-miss"
	kindScan     = "scan"
	kindCampaign = "campaign"
	kindNull     = "null"
)

// connections is the closed-loop client count: nproc is 2, so two
// submitters saturate the box without queueing behind each other.
const connections = 2

// genJob is one generated submission.
type genJob struct {
	kind string
	body []byte
}

// workload is one traffic mix: how the system is configured for it,
// how many jobs a connection keeps outstanding, and the seeded spec
// sequence each connection submits.
type workload struct {
	name string
	why  string
	rig  rigConfig
	// burst is how many jobs a connection submits before awaiting their
	// verdicts (1 = a scientist waiting for each verdict).
	burst int
	// warmup is submitted, one job at a time, before the timed phase.
	warmup []genJob
	// newDraw returns a fresh draw function: it yields connection conn's
	// n-th job (n from 0) from that connection's seeded source. Draw
	// functions hold per-run state, one instance per run.
	newDraw func() func(rng *rand.Rand, conn, n int) genJob
}

// generator is one run's job source: a seeded random source and a draw
// count per connection, so a connection's sequence depends only on the
// seed, never on timing.
type generator struct {
	draw func(rng *rand.Rand, conn, n int) genJob
	rngs [connections]*rand.Rand
	n    [connections]int
}

func (w *workload) generator(seed int64) *generator {
	g := &generator{draw: w.newDraw()}
	for conn := range g.rngs {
		g.rngs[conn] = rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	}
	return g
}

// next draws connection conn's next job. Connections may draw
// concurrently; each touches only its own state.
func (g *generator) next(conn int) genJob {
	job := g.draw(g.rngs[conn], conn, g.n[conn])
	g.n[conn]++
	return job
}

// deck deals a fixed hand in seeded order, reshuffling when it runs
// out, so every card comes up once per hand.
type deck[T any] struct{ hand, left []T }

func (d *deck[T]) deal(rng *rand.Rand) T {
	if len(d.left) == 0 {
		d.left = append(d.left, d.hand...)
		rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	card := d.left[0]
	d.left = d.left[1:]
	return card
}

// rota is the order in which a connection's job kinds come up: a fixed
// cycle, not a seeded one. What a job costs depends on its kind and on
// what the other connection is doing meanwhile, not on its parameters,
// so a seeded order made runs of different seeds differ by several
// percent in every metric while saying nothing about the system. The
// seed draws the parameters (scan rates, hot specs, concentrations);
// the rota keeps every run's mix at the stated shares exactly. The two
// connections walk it half a cycle apart, so they do not submit the
// same kind in lockstep.
type rota []string

func (r rota) at(conn, n int) string {
	return r[(n+conn*len(r)/connections)%len(r)]
}

// cvRates are the scan rates cv jobs draw from, in mV/s.
var cvRates = []float64{20, 50, 100, 200}

// hotRates are the eight DAG specs primed in warm-up and resubmitted
// as cache hits.
var hotRates = []float64{20, 30, 50, 70, 100, 120, 150, 200}

// missRate returns a scan rate no other job of the run carries: miss
// rates climb from 40.001 in steps of 0.001 mV/s (physically the same
// experiment, a different cache key) and stay clear of every hot rate
// for the first 9 998 draws.
func missRate(serial int) float64 { return 40.001 + 0.001*float64(serial) }

func cvBody(tenant string, rate float64) []byte {
	return []byte(fmt.Sprintf(`{"tenant":%q,"kind":"cv","scan_rate_mvs":%s}`, tenant, fmtRate(rate)))
}

func fmtRate(rate float64) string { return strconv.FormatFloat(rate, 'f', -1, 64) }

// dagDoc is examples/dag/cv_classic.json (tasks A–E as a graph) with
// two changes: a DrainCell pyro node ahead of the fill, so sustained
// load never overflows the cell, and an explicit scan rate. acquire.cv
// must carry all seven fields — the decoder only defaults a wholly
// absent block.
func dagDoc(rate float64) string {
	return `{"name":"cv-classic","nodes":[` +
		`{"id":"a_jkem","type":"pyro","object":"jkem","method":"Status"},` +
		`{"id":"a_sp200","type":"pyro","object":"sp200","method":"StatusSP200"},` +
		`{"id":"b_gas","type":"pyro","object":"jkem","method":"SetGasFlow","args":[1,20],"needs":["a_jkem"]},` +
		`{"id":"b_vial","type":"pyro","object":"jkem","method":"SetVialFractionCollector","args":[1,"BOTTOM"],"needs":["b_gas"]},` +
		`{"id":"b_temp","type":"pyro","object":"jkem","method":"ReadTemperature","args":[1],"needs":["b_vial"]},` +
		`{"id":"c_drain","type":"pyro","object":"jkem","method":"DrainCell","needs":["b_temp"]},` +
		`{"id":"c_fill","type":"fill","fill":{"pump":1,"stock_port":8,"cell_port":1,"volume_ml":6,"rate_ml_min":5},"needs":["c_drain"]},` +
		`{"id":"d_acquire","type":"acquire","acquire":{"cv":{"ei_v":0.05,"e1_v":0.8,"e2_v":0.05,"ef_v":0.05,"rate_mv_s":` + fmtRate(rate) + `,"cycles":1,"points":1200}},"needs":["c_fill","a_sp200"]},` +
		`{"id":"d_retrieve","type":"retrieve","needs":["d_acquire"]},` +
		`{"id":"d_analyze","type":"analyze","needs":["d_retrieve"]},` +
		`{"id":"d_classify","type":"ml-classify","seed":7,"needs":["d_retrieve"]},` +
		`{"id":"e_exit","type":"pyro","object":"jkem","method":"ExitJKemAPI","needs":["d_acquire"]},` +
		`{"id":"e_disconnect","type":"pyro","object":"sp200","method":"DisconnectSP200","needs":["d_acquire","e_exit"]}]}`
}

func dagBody(tenant string, rate float64) []byte {
	return []byte(fmt.Sprintf(`{"tenant":%q,"kind":"dag","dag":%s}`, tenant, dagDoc(rate)))
}

func scanBody(tenant string) []byte {
	return []byte(fmt.Sprintf(`{"tenant":%q,"kind":"scan","scan":{"tiles_x":6,"tiles_y":6,"pixels_per_tile":8,"zoom_factor":3}}`, tenant))
}

// campaignCells and campaignRounds shape a campaign job; the audit
// reconciliation expects cells × rounds acquisitions per campaign.
const (
	campaignCells  = 2
	campaignRounds = 2
)

func campaignBody(tenant string, rng *rand.Rand) []byte {
	mm := func() string { return fmtRate(float64(1 + rng.Intn(8))) }
	return []byte(fmt.Sprintf(`{"tenant":%q,"kind":"campaign","cells":[`+
		`{"name":"cell-a","rounds":[{"concentration_mm":%s},{"concentration_mm":%s}]},`+
		`{"name":"cell-b","rounds":[{"concentration_mm":%s},{"concentration_mm":%s}]}]}`,
		tenant, mm(), mm(), mm(), mm()))
}

// missSerial numbers dag misses so no two jobs of a run (warm-up
// included, which takes serials below 100) share a rate.
func missSerial(conn, n int) int { return 100 + n*connections + conn }

func hotWarmup(tenant string) []genJob {
	var out []genJob
	for _, rate := range hotRates {
		out = append(out, genJob{kind: kindDAGMiss, body: dagBody(tenant, rate)})
	}
	return out
}

// nullTenants are sched_null's eight weighted tenants.
var nullTenants = map[string]sched.TenantLimits{
	"t1": {Weight: 1}, "t2": {Weight: 1}, "t3": {Weight: 2}, "t4": {Weight: 2},
	"t5": {Weight: 3}, "t6": {Weight: 3}, "t7": {Weight: 4}, "t8": {Weight: 4},
}

// nullBurst is how many jobs a sched_null connection submits before it
// awaits their verdicts: idle SSE streams are not load generators.
const nullBurst = 16

// workloads returns the four traffic mixes.
func workloads() []*workload {
	cvTenants := []string{"acl", "dgx"}
	mixTenants := map[string]sched.TenantLimits{"acl": {Weight: 3}, "dgx": {}, "stem": {}}
	nullNames := []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"}
	// hotDecks gives each connection half of the hot specs, dealt in
	// turn: every hot blob is then re-read at least once per seven hits
	// of its connection, which keeps it younger than the ~16 miss blobs
	// the 1 MiB cap leaves room for, so eviction churns through misses
	// and never reaches the hot set.
	hotDecks := func() []*deck[float64] {
		half := len(hotRates) / connections
		decks := make([]*deck[float64], connections)
		for conn := range decks {
			decks[conn] = &deck[float64]{hand: hotRates[conn*half : (conn+1)*half]}
		}
		return decks
	}
	return []*workload{
		{
			name:   "cv_classic",
			why:    "the paper's tasks A-E through the hand-written runner: pyro over the WAN, netsim, echem simulation, datachan retrieval, analysis and ml do ~95% of the work, sched ~3%",
			rig:    rigConfig{lab: true, cacheMax: defaultCacheMax},
			burst:  1,
			warmup: []genJob{{kind: kindCV, body: cvBody("acl", 50)}, {kind: kindCV, body: cvBody("dgx", 50)}},
			newDraw: func() func(*rand.Rand, int, int) genJob {
				return func(rng *rand.Rand, conn, n int) genJob {
					return genJob{kind: kindCV, body: cvBody(cvTenants[conn], cvRates[rng.Intn(len(cvRates))])}
				}
			},
		},
		{
			name:   "dag_cache",
			why:    "one layer used two ways: 60% resubmit a hot spec served from the content-keyed cache (p50), 40% carry a never-seen scan rate (full acquisition, p95), with LRU eviction under a 1 MiB cap",
			rig:    rigConfig{lab: true, cacheMax: 1 << 20},
			burst:  1,
			warmup: hotWarmup("acl"),
			newDraw: func() func(*rand.Rand, int, int) genJob {
				kinds := rota{kindDAGHit, kindDAGMiss, kindDAGHit, kindDAGMiss, kindDAGHit}
				hot := hotDecks()
				return func(rng *rand.Rand, conn, n int) genJob {
					if kinds.at(conn, n) == kindDAGMiss {
						return genJob{kind: kindDAGMiss, body: dagBody(cvTenants[conn], missRate(missSerial(conn, n)))}
					}
					return genJob{kind: kindDAGHit, body: dagBody(cvTenants[conn], hot[conn].deal(rng))}
				}
			},
		},
		{
			name:  "facility_mix",
			why:   "the production shape: echem and STEM leases overlap, all four job kinds and both runners coexist under weighted tenants; per-kind latency is what a one-engine refactor must hold",
			rig:   rigConfig{lab: true, cacheMax: defaultCacheMax, tenants: mixTenants},
			burst: 1,
			warmup: append(hotWarmup("acl"),
				genJob{kind: kindCV, body: cvBody("acl", 50)},
				genJob{kind: kindScan, body: scanBody("stem")},
				genJob{kind: kindCampaign, body: campaignBody("dgx", rand.New(rand.NewSource(0)))}),
			newDraw: func() func(*rand.Rand, int, int) genJob {
				kinds := rota{kindCV, kindDAGMiss, kindScan, kindDAGHit, kindCV, kindScan, kindDAGMiss, kindCV, kindDAGHit, kindCampaign}
				hot := hotDecks()
				return func(rng *rand.Rand, conn, n int) genJob {
					kind := kinds.at(conn, n)
					// Campaigns go to connection 0 only, so at most one is in
					// flight and the robot can be docked and charged between
					// them; connection 1 runs a scan in its place.
					if kind == kindCampaign && conn != 0 {
						kind = kindScan
					}
					switch kind {
					case kindCV:
						return genJob{kind: kind, body: cvBody("acl", cvRates[rng.Intn(len(cvRates))])}
					case kindDAGHit:
						return genJob{kind: kind, body: dagBody("acl", hot[conn].deal(rng))}
					case kindDAGMiss:
						return genJob{kind: kind, body: dagBody("dgx", missRate(missSerial(conn, n)))}
					case kindScan:
						return genJob{kind: kind, body: scanBody("stem")}
					default:
						return genJob{kind: kind, body: campaignBody("dgx", rng)}
					}
				}
			},
		},
		{
			name:   "sched_null",
			why:    "null runner, no lab: gateway, scheduler, WAL, trace and telemetry do all the work, so admission, group-commit, lock and fan-out changes show here and lab changes predict no change",
			rig:    rigConfig{tenants: nullTenants},
			burst:  nullBurst,
			warmup: nullWarmup(nullNames),
			newDraw: func() func(*rand.Rand, int, int) genJob {
				// Each burst names every tenant twice, in seeded order, so no
				// tenant ever has more than four jobs outstanding (the quota
				// is 16).
				tenants := make([]*deck[string], connections)
				for conn := range tenants {
					tenants[conn] = &deck[string]{hand: append(append([]string(nil), nullNames...), nullNames...)}
				}
				return func(rng *rand.Rand, conn, n int) genJob {
					return nullJob(tenants[conn].deal(rng), n)
				}
			},
		},
	}
}

// nullJob alternates sched_null's two specs: a ~40-byte cv and the
// ~1.5 KB 13-node dag, whose graph admission validates.
func nullJob(tenant string, n int) genJob {
	if n%2 == 0 {
		return genJob{kind: kindNull, body: []byte(`{"tenant":"` + tenant + `","kind":"cv","points":600}`)}
	}
	return genJob{kind: kindNull, body: dagBody(tenant, 50)}
}

// nullWarmup is two bursts' worth of jobs: enough admissions that the
// set-up time is not a single fsync's luck.
func nullWarmup(tenants []string) []genJob {
	var out []genJob
	for n := 0; n < 2*nullBurst; n++ {
		out = append(out, nullJob(tenants[n%len(tenants)], n))
	}
	return out
}
