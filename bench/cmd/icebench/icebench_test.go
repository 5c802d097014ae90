package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	// 20 samples, one failed: the failure is the single sample beyond
	// p95, so p95 is still the slowest success and p100 is +Inf.
	values := make([]float64, 0, 20)
	for i := 1; i <= 19; i++ {
		values = append(values, float64(i))
	}
	values = append(values, inf)
	if got := percentile(values, 50); got != 10 {
		t.Errorf("p50 = %v, want 10", got)
	}
	if got := percentile(values, 95); got != 19 {
		t.Errorf("p95 = %v, want 19", got)
	}
	if got := percentile(values, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 = %v, want +Inf", got)
	}
	// Two failures in 20 put one inside p95.
	values[18] = inf
	if got := percentile(values, 95); !math.IsInf(got, 1) {
		t.Errorf("p95 with 10%% failures = %v, want +Inf", got)
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("p95 of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of unsorted = %v, want 2", got)
	}
}

func TestUtilisationIsTheUnionOfIntervals(t *testing.T) {
	ivs := []interval{{10, 30}, {20, 40}, {60, 70}, {65, 68}, {90, 120}}
	if got := unionLength(ivs); got != 30+10+30 {
		t.Errorf("union = %d, want 70", got)
	}
	// Over [0, 100) the last interval is clipped to 10.
	if got, want := utilisation(ivs, 0, 100), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("utilisation = %v, want %v", got, want)
	}
	if got := utilisation(nil, 0, 100); got != 0 {
		t.Errorf("utilisation of nothing = %v", got)
	}
	if got := utilisation(ivs, 50, 50); got != 0 {
		t.Errorf("utilisation over an empty window = %v", got)
	}
}

func TestSelfTimeSubtractsChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},              // root
		{ID: 2, Parent: 1, Start: 10, End: 40},   // child
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps child 2
		{ID: 4, Parent: 1, Start: 90, End: 130},  // runs past the root's end
		{ID: 5, Parent: 2, Start: 10, End: 40},   // covers its parent fully
		{ID: 6, Parent: 99, Start: 0, End: 1000}, // orphan: covers nobody
	}
	setSelfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 0, 3: 30, 4: 40, 5: 30, 6: 1000}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

// sequenceHash digests the first n jobs each connection would submit:
// the generator's fingerprint for a seed.
func sequenceHash(w *workload, seed int64, n int) string {
	h := sha256.New()
	g := w.generator(seed)
	for conn := 0; conn < connections; conn++ {
		for i := 0; i < n; i++ {
			job := g.next(conn)
			fmt.Fprintf(h, "%d %s %s\n", conn, job.kind, job.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorIsDeterministicInTheSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := sequenceHash(w, 1, 200), sequenceHash(w, 1, 200), sequenceHash(w, 2, 200)
		if a != b {
			t.Errorf("%s: seed 1 generated two different sequences", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same sequence", w.name)
		}
	}
}

func TestGeneratorKeepsTheStatedMix(t *testing.T) {
	var g *generator
	for _, w := range workloads() {
		if w.name == "facility_mix" {
			g = w.generator(7)
		}
	}
	counts := map[string]int{}
	for conn := 0; conn < connections; conn++ {
		for i := 0; i < 100; i++ {
			counts[g.next(conn).kind]++
		}
	}
	// 200 jobs: 30% cv, 20% dag-miss, 20% dag-hit, 20% scan, 10% campaign,
	// with connection 1's campaigns replaced by scans.
	want := map[string]int{kindCV: 60, kindDAGMiss: 40, kindDAGHit: 40, kindScan: 50, kindCampaign: 10}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%s: %d of 200, want %d", kind, counts[kind], n)
		}
	}
}

func TestMissRatesNeverRepeatOrCollideWithHotRates(t *testing.T) {
	hot := map[float64]bool{}
	for _, r := range hotRates {
		hot[r] = true
	}
	seen := map[float64]bool{}
	for conn := 0; conn < connections; conn++ {
		for n := 0; n < 2000; n++ {
			r := missRate(missSerial(conn, n))
			if hot[r] || seen[r] {
				t.Fatalf("miss rate %v (conn %d, draw %d) repeats or is a hot rate", r, conn, n)
			}
			seen[r] = true
		}
	}
}

// TestBenchmarkJSONRestatesTheTables holds BENCHMARK.json at the repo
// root to the metric and workload tables compiled into the harness.
func TestBenchmarkJSONRestatesTheTables(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench module: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(decl.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d compiled in", len(decl.Workloads), len(ws))
	}
	for i, w := range ws {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, compiled in %q (or their whys differ)", i, decl.Workloads[i].Name, w.name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d compiled in", len(decl.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := decl.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: declared %+v, compiled in %+v", i, got, d)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d compiled in", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := decl.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: declared %+v, compiled in %+v", i, got, d)
		}
	}
}

func TestOverBlocksReadsTheSteadyState(t *testing.T) {
	// 160 jobs finishing one per second at a latency of 1, except an
	// episode covering three of the sixteen blocks where they take 5.
	var samples []sample
	for i := 1; i <= 160; i++ {
		s := sample{at: float64(i), latency: 1}
		if i > 40 && i <= 70 {
			s.latency = 5
		}
		samples = append(samples, s)
	}
	if got := overBlocks(samples, latencyPercentile(95)); got != 1 {
		t.Errorf("p95 over blocks = %v, want the steady state's 1", got)
	}
	rate := overBlocks(samples, func(group []sample, took float64) float64 { return float64(len(group)) / took })
	if math.Abs(rate-1) > 1e-12 {
		t.Errorf("rate over blocks = %v, want 1", rate)
	}
	// Failures in more than a quarter of the blocks do show.
	for i := range samples {
		if i%20 < 10 {
			samples[i].latency = math.Inf(1)
		}
	}
	if got := overBlocks(samples, latencyPercentile(95)); !math.IsInf(got, 1) {
		t.Errorf("p95 with failures throughout = %v, want +Inf", got)
	}
	if got := overBlocks(nil, latencyPercentile(95)); got != 0 {
		t.Errorf("p95 of nothing = %v, want 0", got)
	}
}
