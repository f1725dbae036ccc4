package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"memdos/internal/core"
)

func testTraces() []*pcmTrace {
	var trs []*pcmTrace
	for i, app := range []string{"KM", "FN", "TS"} {
		tr := &pcmTrace{App: app}
		for k := 0; k < 1000; k++ {
			tr.Access = append(tr.Access, float64(1000+i*100+k%37))
			tr.Miss = append(tr.Miss, float64(50+k%11))
		}
		trs = append(trs, tr)
	}
	return trs
}

func testPlan(seed uint64) *fleetPlan {
	return makePlan(planSpec{
		Traces:    testTraces(),
		Profile:   func(t *pcmTrace) string { return "sdsb:" + t.App },
		Sessions:  25,
		Canaries:  3,
		Period:    8,
		Producers: 2,
		Frame:     50,
	}, seed)
}

func TestEventDueMapsAlarmTimeToItsFrame(t *testing.T) {
	plan := testPlan(1)
	sc := newSchedule(plan, 28_000, time.Now()) // 1000 samples/s per session
	for _, s := range plan.Sessions {
		n := len(plan.Order[s.Producer])
		for _, j := range []int{0, 1, 49, 50, 99, 100, 1234, 2999} {
			smp := s.sample(j)
			if got := s.index(smp.Time); got != j {
				t.Fatalf("%s: index(%v) = %d, want %d", s.ID, smp.Time, got, j)
			}
			f := j / plan.Frame
			want := float64(f*n+s.Pos) * sc.interval[s.Producer]
			if got := sc.eventDue(s, smp.Time); got != want {
				t.Fatalf("%s sample %d: due %v, want %v (frame %d)", s.ID, j, got, want, f)
			}
			// The frame the producer sends at that slot carries the sample.
			fs, first := sc.frameOf(s.Producer, f*n+s.Pos)
			if fs != s || j < first || j >= first+plan.Frame {
				t.Fatalf("%s sample %d: slot carries %s [%d,%d)", s.ID, j, fs.ID, first, first+plan.Frame)
			}
		}
	}
	// Every session gets the same per-session rate: one frame per
	// n*interval on each producer.
	per := func(p int) float64 { return float64(len(plan.Order[p])) * sc.interval[p] }
	if math.Abs(per(0)-per(1)) > 1e-6*per(0) {
		t.Fatalf("per-session frame period differs across producers: %v vs %v", per(0), per(1))
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var d dist
	for i := 1; i <= 1000; i++ {
		d.add(float64(1001 - i))
	}
	if q, v := d.tail(); q != 99 || v != 990 {
		t.Fatalf("tail of 1..1000 = p%v %v, want p99 990", q, v)
	}
	if d.q(50) != 500 || d.q(100) != 1000 {
		t.Fatalf("nearest-rank p50 %v p100 %v", d.q(50), d.q(100))
	}
}

func TestRungPassRule(t *testing.T) {
	for _, c := range []struct {
		r    rungResult
		pass bool
	}{
		{rungResult{Slices: 4, SlicesOK: 4}, true},
		{rungResult{Slices: 4, SlicesOK: 3}, true}, // one stalled slice is tolerated
		{rungResult{Slices: 4, SlicesOK: 2}, false},
		{rungResult{Slices: 4, SlicesOK: 4, DepthGrew: true}, false},
		{rungResult{}, false},
	} {
		if got := c.r.passes(); got != c.pass {
			t.Errorf("%+v: passes %v, want %v", c.r, got, c.pass)
		}
	}

	// Four slices of a 400 ms rung: slice 0 clean, slice 1 sheds, slice
	// 2 is slow at p99, slice 3 has too few alarms for a p99 and is slow
	// at p90, the highest percentile it measures.
	var at, ms []float64
	for i := 0; i < 1000; i++ {
		at = append(at, 10+float64(i)*0.08, 110+float64(i)*0.08, 210+float64(i)*0.08)
		slow := 1.0
		if i >= 980 {
			slow = 10.5 // 20 of 1000: p99 over the limit
		}
		ms = append(ms, 1, 1, slow)
	}
	for i := 0; i < 500; i++ {
		at = append(at, 310+float64(i)*0.1)
		slow := 1.0
		if i%5 == 0 {
			slow = 11 // 100 of 500: p90 over the limit
		}
		ms = append(ms, slow)
	}
	dropAt := []float64{0, 50, 150, 250, 350, 399}
	dropCum := []uint64{7, 7, 9, 9, 9, 9} // 7 shed before the rung started
	got := sliceVerdicts(400, 4, at, ms, dropAt, dropCum)
	if want := []bool{true, false, false, false}; len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("slice verdicts %v, want %v", got, want)
	}
	// A slice with too few alarms to measure any tail shows no lag.
	if got := sliceVerdicts(400, 4, []float64{10}, []float64{50}, nil, nil); !got[0] {
		t.Fatal("a slice with one alarm must not fail on latency")
	}

	if !depthGrew([]int64{0, 10, 20, 30, 40, 50, 60, 70}, 5) {
		t.Error("linear backlog growth not detected")
	}
	if depthGrew([]int64{40, 60, 50, 45, 55, 50, 48, 52}, 5) {
		t.Error("steady backlog reported as growing")
	}
	if depthGrew([]int64{40, 60, 50, 45, 55, 5000, 48, 52}, 5) {
		t.Error("one stall spike reported as a growing backlog")
	}
	if depthGrew([]int64{0, 100}, 0) {
		t.Error("too few samples must not fail a rung")
	}
}

func TestLadderWalksCoarseThenBisects(t *testing.T) {
	capacity := 1000.0
	var rates []float64
	run := func(rate float64) rungResult {
		rates = append(rates, rate)
		r := rungResult{Rate: rate, Slices: 4, SlicesOK: 4}
		if rate > capacity {
			r.DepthGrew = true
		}
		return r
	}
	best, rungs := ladder(400, 2, 4, 20, run)
	// coarse: 400 800 1600 (fail, retried); then four geometric
	// bisections of [800, 1600], each failing rung retried once.
	want := []float64{400, 800, 1600, 1600}
	lo, hi := 800.0, 1600.0
	for i := 0; i < 4; i++ {
		mid := math.Sqrt(lo * hi)
		want = append(want, mid)
		if mid <= capacity {
			lo = mid
		} else {
			want = append(want, mid)
			hi = mid
		}
	}
	if len(rungs) != len(want) {
		t.Fatalf("ran %v, want %v", rates, want)
	}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("ran %v, want %v", rates, want)
		}
	}
	if math.Abs(best-lo) > 1e-9 || best > capacity || best < capacity/math.Pow(2, 1.0/16) {
		t.Fatalf("best %v, want %v within 2^(1/16) below %v", best, lo, capacity)
	}
	if best, _ := ladder(400, 2, 4, 20, func(r float64) rungResult { return rungResult{Rate: r} }); best != 0 {
		t.Fatalf("a ladder where every rung fails gave %v", best)
	}
	// A failing first rung walks down until one passes, then bisects.
	capacity = 300
	if down, _ := ladder(400, 2, 4, 30, run); down > capacity || down < capacity/math.Pow(2, 1.0/16) {
		t.Fatalf("walking down: best %v, want within 2^(1/16) below %v", down, capacity)
	}
	capacity = 1000
	if _, rungs := ladder(1, 2, 4, 3, run); len(rungs) != 3 {
		t.Fatalf("maxRungs not honoured: %d", len(rungs))
	}
	// One transient failure is retried and does not change the result.
	flaky := false
	got, _ := ladder(400, 2, 4, 20, func(rate float64) rungResult {
		r := run(rate)
		if rate == 800 && !flaky {
			flaky = true
			r.SlicesOK = 0
		}
		return r
	})
	if got != best {
		t.Fatalf("a single transient failure changed the result: %v, want %v", got, best)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	for _, c := range []struct {
		name string
		kids [][2]int64
		want int64
	}{
		{"none", nil, 100},
		{"tiling", [][2]int64{{0, 30}, {30, 70}, {70, 100}}, 0},
		{"overlap", [][2]int64{{10, 40}, {30, 50}}, 60},
		{"nested", [][2]int64{{10, 60}, {20, 30}}, 50},
		{"clipped", [][2]int64{{-50, 10}, {90, 500}}, 80},
		{"outside", [][2]int64{{200, 300}}, 100},
	} {
		if got := selfTime(0, 100, c.kids); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSameSeedSameStream(t *testing.T) {
	frames := []int{400, 400}
	digest := func(seed uint64) string {
		plan := testPlan(seed)
		d, err := streamDigest(newSchedule(plan, 10_000, time.Now()), frames)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Fatalf("same seed, different streams: %s %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 7 and 8 gave the same stream %s", a)
	}
}

func TestCanaryGivesTwoTransitionsPerPeriod(t *testing.T) {
	s := &sessionPlan{ID: "c", Profile: "raw", Period: 8, Phase: 3 + 8*1000}
	det, err := core.NewRawThreshold(0.5)
	if err != nil {
		t.Fatal(err)
	}
	alarm, flips := false, 0
	const n = 50 * 8
	for j := 0; j < n; j++ {
		for _, d := range det.Push(s.sample(j)) {
			if d.Alarm != alarm {
				alarm = d.Alarm
				flips++
			}
		}
	}
	if want := 2 * (n - 1) / 8; flips < want-2 || flips > want+2 {
		t.Fatalf("%d transitions over %d samples, want about %d", flips, n, want)
	}
}

func TestActionLatencyClaimsFirstCallAfterDue(t *testing.T) {
	raises := map[string][]float64{"a": {100, 500}, "b": {300}}
	calls := map[string][]int64{
		"a": {50, 120, 130, 900}, // 50 belongs to an earlier episode
		"b": {},
	}
	lat, _, missing := actionLatency(raises, calls)
	if missing != 1 || len(lat) != 2 {
		t.Fatalf("lat %v missing %d", lat, missing)
	}
	got := map[float64]bool{lat[0]: true, lat[1]: true}
	if !got[20/1e6] || !got[400/1e6] {
		t.Fatalf("latencies %v, want 20ns and 400ns in ms", lat)
	}
}

func TestVerdictDigestIgnoresOrder(t *testing.T) {
	w1, w2 := []float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}
	a := verdictHash(w1, 1, 2) + verdictHash(w2, 0, 1)
	b := verdictHash(w2, 0, 1) + verdictHash(w1, 1, 2)
	if a != b || verdictHash(w1, 1, 2) == verdictHash(w1, 1, 1) {
		t.Fatal("verdict digest must be order-free and sensitive to the verdict")
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, names []string, unit func(string) string) {
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(names))
		}
		want := make(map[string]bool)
		for _, n := range names {
			want[n] = true
		}
		for _, m := range got {
			if !want[m.Name] {
				t.Errorf("%s: %s is listed but not reported", kind, m.Name)
			} else if u := unit(m.Name); u != m.Unit {
				t.Errorf("%s: %s unit %q, reported %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eNames, func(n string) string { return metricUnits[n] })
	check("per_layer", b.PerLayer, perLayerNames, func(n string) string {
		if u, ok := perLayerUnits[n]; ok {
			return u
		}
		if u, ok := metricUnits[n]; ok {
			return u
		}
		return "ratio" // overhead.*
	})
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{fleetAttack.Name, ingestFlood.Name, simGridName}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

func TestMedianBandDecomposesTheMedianAlarm(t *testing.T) {
	var paths []alarmPath
	for i := 0; i < 100; i++ {
		a, b, c := float64(i), 2*float64(i), float64(100-i%7)
		paths = append(paths, alarmPath{total: a + b + c, stages: [3]float64{a, b, c}})
	}
	st := medianBand(paths)
	var totals dist
	for _, p := range paths {
		totals.add(p.total)
	}
	if sum := st[0] + st[1] + st[2]; math.Abs(sum/totals.q(50)-1) > 0.05 {
		t.Fatalf("band stages sum to %v, median total %v", sum, totals.q(50))
	}
	if got := medianBand(nil); got != [3]float64{} {
		t.Fatalf("empty band %v", got)
	}
}
