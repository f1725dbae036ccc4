package main

import (
	"math"
	"sort"
)

// Latency summary rules shared by every workload.

// percentileLadder lists the percentiles a summary may report, highest
// last. tailPercentile picks the highest one with at least minBeyond
// samples above it.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count as measured rather than as the sample maximum.
const minBeyond = 10

// quantile returns the q-th percentile (0 < q <= 100) of sorted values
// by the nearest-rank rule; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentile returns the highest percentile of percentileLadder that
// has at least minBeyond of n samples beyond it, or 0 when even the
// median has fewer (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if float64(n)*(1-q/100) >= minBeyond-1e-9 {
			best = q
		}
	}
	return best
}

// dist is a latency sample set with its summary.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v); d.sorted = false }

func (d *dist) n() int { return len(d.vals) }

func (d *dist) q(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	return quantile(d.vals, p)
}

// tail returns the highest percentile with at least minBeyond samples
// beyond it, and its value.
func (d *dist) tail() (q, v float64) {
	q = tailPercentile(d.n())
	if q == 0 {
		return 0, math.NaN()
	}
	return q, d.q(q)
}

// slicedQuantile splits samples into k equal slices of [0, span) by
// their time at[i] and returns the median over slices of each slice's
// q-th percentile. Slices too small for q (fewer than minBeyond samples
// beyond it) are skipped; with none left it returns the q-th percentile
// of the whole set. One stall then moves one slice, not the result.
func slicedQuantile(at, v []float64, span float64, k int, q float64) float64 {
	slices := make([]dist, k)
	for i, t := range at {
		j := int(t / span * float64(k))
		j = min(max(j, 0), k-1)
		slices[j].add(v[i])
	}
	var per []float64
	for i := range slices {
		if tailPercentile(slices[i].n()) >= q {
			per = append(per, slices[i].q(q))
		}
	}
	if len(per) == 0 {
		all := dist{vals: append([]float64(nil), v...)}
		return all.q(q)
	}
	return median(per)
}

// median returns the median of vs (NaN when empty) without reordering
// the caller's slice.
func median(vs []float64) float64 {
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return math.NaN()
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// The saturation ladder.

// rungResult is what one rate rung of the ladder observed.
type rungResult struct {
	Rate      float64 // offered samples/s
	Sent      uint64
	Dropped   uint64 // samples shed by the hub plus windows shed by the scorer
	DepthGrew bool
	P99Ms     float64 // alarm latency p99 over the whole rung
	Alarms    int
	// Slices is how many equal time slices the rung was judged in, and
	// SlicesOK how many of them shed nothing and kept their alarm p99
	// within tailLimitMs.
	Slices, SlicesOK int
}

// rungPercentile is the alarm-latency percentile a rung is judged on.
const rungPercentile = 99

// tailLimitMs is the rung latency limit: one PCM sampling period, so the
// daemon never lags the sampler.
const tailLimitMs = 10.0

// passes reports whether a rung met all three conditions: no growing
// backlog, and in all of its slices but at most one, nothing shed and
// an alarm p99 within one sampling period. The one slice of slack keeps
// a single transient stall of the host from deciding the rung.
func (r rungResult) passes() bool {
	return !r.DepthGrew && r.Slices > 0 && r.SlicesOK >= r.Slices-1
}

// sliceVerdicts splits [0, span) into k equal slices and reports, per
// slice, whether it shed nothing and kept its alarm p99 within
// tailLimitMs. A slice with too few alarms for a measured p99 is judged
// at the highest percentile it does measure (tailPercentile); one with
// fewer than 20 alarms shows no lag. Alarms are given by due time and
// latency; sheds by a cumulative counter sampled at dropAt (an increase
// is charged to the slice of the later sample).
func sliceVerdicts(span float64, k int, alarmAt, alarmMs, dropAt []float64, dropCum []uint64) []bool {
	slice := func(t float64) int { return min(max(int(t/span*float64(k)), 0), k-1) }
	lat := make([]dist, k)
	for i, t := range alarmAt {
		lat[slice(t)].add(alarmMs[i])
	}
	shed := make([]uint64, k)
	for i := 1; i < len(dropCum); i++ {
		shed[slice(dropAt[i])] += dropCum[i] - dropCum[i-1]
	}
	ok := make([]bool, k)
	for i := range ok {
		q := min(tailPercentile(lat[i].n()), rungPercentile)
		ok[i] = shed[i] == 0 && (q == 0 || lat[i].q(q) <= tailLimitMs)
	}
	return ok
}

// depthGrew applies the backlog rule to queue-depth samples taken at a
// fixed interval across a rung: the backlog grew when the median of the
// second half exceeds twice the median of the first half plus slack. A
// linearly growing queue fails (its second-half median is about three
// times the first), a steady one passes, and the medians ignore the
// spike of a single short stall.
func depthGrew(depths []int64, slack float64) bool {
	if len(depths) < 4 {
		return false
	}
	h := len(depths) / 2
	half := func(ds []int64) float64 {
		vs := make([]float64, len(ds))
		for i, d := range ds {
			vs[i] = float64(d)
		}
		return median(vs)
	}
	return half(depths[len(depths)-h:]) > 2*half(depths[:h])+slack
}

// ladder walks a geometric rate ladder from start: up by coarse× while
// rungs pass (down by coarse× while they fail, when the first one
// fails), then bisects the interval between the highest passing and the
// lowest failing rate geometrically bisect times (resolution
// coarse^(1/2^bisect)). A failing rung is run once more and fails only
// if the retry fails too, so a noisy second of the host does not decide
// the walk. It returns the highest passing rate (0 only when no rung
// passed within maxRungs) and every rung run.
func ladder(start, coarse float64, bisect, maxRungs int, run func(rate float64) rungResult) (float64, []rungResult) {
	var rungs []rungResult
	try := func(rate float64) bool {
		for attempt := 0; attempt < 2 && len(rungs) < maxRungs; attempt++ {
			r := run(rate)
			rungs = append(rungs, r)
			if r.passes() {
				return true
			}
		}
		return false
	}
	best, fail := 0.0, 0.0
	if try(start) {
		best = start
		for rate := start * coarse; len(rungs) < maxRungs; rate *= coarse {
			if !try(rate) {
				fail = rate
				break
			}
			best = rate
		}
	} else {
		fail = start
		for rate := start / coarse; len(rungs) < maxRungs; rate /= coarse {
			if try(rate) {
				best = rate
				break
			}
			fail = rate
		}
	}
	if best == 0 || fail == 0 {
		return best, rungs
	}
	lo, hi := best, fail
	for i := 0; i < bisect && len(rungs) < maxRungs; i++ {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo, best = mid, mid
		} else {
			hi = mid
		}
	}
	return best, rungs
}

// Traced spans and self time.

// span is one timed interval of a trace. Times are nanoseconds since the
// phase start. Parent is -1 for a root.
type span struct {
	Name       string  `json:"name"`
	Start      int64   `json:"start_ns"`
	End        int64   `json:"end_ns"`
	Parent     int     `json:"parent"`
	Session    string  `json:"session"`
	SampleTime float64 `json:"t"`
}

// selfTime returns the part of [start, end) not covered by any child
// interval: the span's duration minus the union of its children clipped
// to it.
func selfTime(start, end int64, children [][2]int64) int64 {
	if end <= start {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c[0], start), min(c[1], end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curA, curB := int64(0), int64(0)
	open := false
	for _, c := range iv {
		if !open || c[0] > curB {
			if open {
				covered += curB - curA
			}
			curA, curB, open = c[0], c[1], true
			continue
		}
		if c[1] > curB {
			curB = c[1]
		}
	}
	if open {
		covered += curB - curA
	}
	return end - start - covered
}
