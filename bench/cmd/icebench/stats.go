package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of values by the
// nearest-rank method. A failed or refused job is recorded at +Inf, so
// it counts as missing every latency limit; with enough of them the
// percentile itself reads +Inf. Empty input reads 0.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(values []float64) float64 { return percentile(values, 50) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return sum(values) / float64(len(values))
}

func sum(values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

// interval is a half-open stretch of time in nanoseconds.
type interval struct{ start, end int64 }

// unionLength is the total time covered by at least one interval.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var total int64
	cur := sorted[0]
	for _, iv := range sorted[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// utilisation is the share of [from, to) covered by the intervals,
// each clipped to the window.
func utilisation(ivs []interval, from, to int64) float64 {
	if to <= from {
		return 0
	}
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < from {
			iv.start = from
		}
		if iv.end > to {
			iv.end = to
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	return float64(unionLength(clipped)) / float64(to-from)
}

// sample is one job of a timed phase: when it completed (seconds into
// the phase), its submit-to-verdict latency (+Inf if it failed) and its
// admission round trip.
type sample struct {
	at, latency, admit float64
}

// blocks is how many equal-count groups a timed phase is cut into.
const blocks = 16

// overBlocks orders the samples by completion time, cuts them into
// groups of equal count, applies stat to each group together with the
// seconds the group took to complete, and returns the interquartile
// mean over the groups: the mean of what is left after dropping the
// lowest and the highest quarter. A closed loop on a small box runs in
// long steady stretches broken by episodes in which the two
// connections fall into a slower rhythm, or a neighbour takes the CPU,
// for seconds at a time; a whole-run statistic moves with how much of
// the run such episodes happened to cover, while the interquartile
// mean reads the steady state as long as three blocks in four are in
// it, and wastes fewer of the blocks than their median would.
func overBlocks(samples []sample, stat func(group []sample, took float64) float64) float64 {
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	var stats []float64
	prev := 0.0
	for b := 0; b < blocks; b++ {
		group := sorted[b*len(sorted)/blocks : (b+1)*len(sorted)/blocks]
		if len(group) == 0 {
			continue
		}
		end := group[len(group)-1].at
		stats = append(stats, stat(group, end-prev))
		prev = end
	}
	sort.Float64s(stats)
	return mean(stats[len(stats)/4 : len(stats)-len(stats)/4])
}

// samples turns the phase's jobs into block-statistic samples. A job
// that failed completes, for ordering, when its submission was
// answered.
func (p *phase) samples() []sample {
	out := make([]sample, len(p.jobs))
	for i, j := range p.jobs {
		s := sample{at: j.acked.Sub(p.start).Seconds(), latency: math.Inf(1), admit: j.acked.Sub(j.sent).Seconds()}
		if j.ok() {
			s.at, s.latency = j.verdict.Sub(p.start).Seconds(), j.verdict.Sub(j.sent).Seconds()
		}
		out[i] = s
	}
	return out
}

// doneRate is a block's throughput: jobs that succeeded ÷ the time the
// block took.
func doneRate(group []sample, took float64) float64 {
	done := 0
	for _, s := range group {
		if !math.IsInf(s.latency, 1) {
			done++
		}
	}
	return float64(done) / took
}

func admitMedian(group []sample, _ float64) float64 {
	values := make([]float64, len(group))
	for i, s := range group {
		values[i] = s.admit
	}
	return median(values)
}

func latencyPercentile(p float64) func([]sample, float64) float64 {
	return func(group []sample, _ float64) float64 {
		values := make([]float64, len(group))
		for i, s := range group {
			values[i] = s.latency
		}
		return percentile(values, p)
	}
}
