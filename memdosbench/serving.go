package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
	"memdos/internal/sim"
	"memdos/internal/stream"
	"memdos/internal/workload"
)

// servingConfig is one serving workload's shape.
type servingConfig struct {
	Name     string
	Sessions int
	// Canaries are raw-profile sessions that alarm on a fixed schedule
	// (a spike and its clear every period samples, the period chosen per
	// phase for canaryRate transitions per second); they share shards
	// with the load, so their alarm latency is the pipeline's queueing
	// latency, and they give every phase and rung enough alarms for a
	// measured p99.
	Canaries int
	// Modes are the attack modes of the simulated victim traces, one
	// trace per (app, mode).
	Modes []experiments.AttackMode
	// Adaptive runs the traces under the Scenario 2 on/off attacker.
	Adaptive bool
	// Profile names the detector profile a trace's sessions run on.
	Profile func(*pcmTrace) string
	// Scorer attaches the batched cascade scorer.
	Scorer      bool
	NominalRate float64 // samples/s; the ladder starts here
}

// Shared serving constants.
const (
	producers    = 2  // producer goroutines, one connection each
	frameSamples = 50 // samples per frame: one DW decision window
	traceSeconds = 600
	profileSecs  = 120 // memdosd's default -profile-dur
	traceSeed    = 1
	cascadeSeed  = 7
	setupRepeats = 3
	// The saturation ladder: rates double from the nominal rate until a
	// rung fails (halve until one passes, if the nominal rate fails),
	// then 4 geometric bisections (2^(1/16) resolution); each rung runs
	// 0.8 s, a failing rung is retried once, and a walk runs at most 14
	// rungs.
	ladderCoarse = 2
	ladderBisect = 4
	ladderRungs  = 14
	rungDuration = 800 * time.Millisecond
)

var fleetAttack = servingConfig{
	Name:        "fleet-attack",
	Sessions:    128,
	Modes:       []experiments.AttackMode{experiments.BusLock, experiments.Cleansing},
	Adaptive:    true,
	Profile:     func(t *pcmTrace) string { return "sds:" + t.App },
	Scorer:      true,
	Canaries:    4,
	NominalRate: 200_000,
}

var ingestFlood = servingConfig{
	Name:        "ingest-flood",
	Sessions:    1024,
	Canaries:    16,
	Modes:       []experiments.AttackMode{experiments.NoAttack},
	Profile:     func(t *pcmTrace) string { return "sdsb:" + t.App },
	NominalRate: 300_000,
}

// servingWorkload holds one serving workload's set-up products.
type servingWorkload struct {
	cfg      servingConfig
	params   core.Params
	traces   []*pcmTrace
	profiles map[string]core.Profile
	cascade  *dnn.Cascade
	// set-up measurements of the simulator layer
	simSpeed  []float64 // simulated s per wall s, per set-up trace cell
	cellMs    map[string][]float64
	profileMs []float64
	stepNs    []float64
	steps     int64
}

// factories returns the detector profiles memdosd registers: raw plus
// sdsb:<APP> and sds:<APP> for every profiled app.
func (w *servingWorkload) factories() map[string]stream.DetectorFactory {
	out := map[string]stream.DetectorFactory{
		"raw": func() (core.Detector, error) { return core.NewRawThreshold(0.5) },
	}
	for app, prof := range w.profiles {
		prof := prof
		out["sdsb:"+app] = func() (core.Detector, error) { return core.NewSDSB(prof, w.params) }
		out["sds:"+app] = func() (core.Detector, error) { return core.NewSDS(prof, w.params) }
	}
	return out
}

// setup simulates the victim traces, profiles every app, builds the
// cascade, and starts a stack with every session open.
func (w *servingWorkload) setup(seed uint64) (*stack, *fleetPlan, error) {
	w.params = core.DefaultParams()
	if w.cellMs == nil {
		w.cellMs = make(map[string][]float64)
	}
	apps := workload.Abbrevs()

	type cell struct {
		app  string
		mode experiments.AttackMode
	}
	var cells []cell
	for _, app := range apps {
		for _, m := range w.cfg.Modes {
			cells = append(cells, cell{app, m})
		}
	}
	type cellOut struct {
		tr     *pcmTrace
		wallNs int64
	}
	outs, err := experiments.MapCells(experiments.DefaultRunner(), len(cells), func(i int) (cellOut, error) {
		c := cells[i]
		spec := experiments.DefaultRunSpec(c.app, c.mode, traceSeed)
		spec.Duration = traceSeconds
		spec.Adaptive = w.cfg.Adaptive && c.mode != experiments.NoAttack
		t0 := nowNs()
		res, err := experiments.Run(spec, w.params, nil)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{
			tr:     &pcmTrace{App: c.app, Access: res.Access.Values, Miss: res.Miss.Values},
			wallNs: nowNs() - t0,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	w.traces = nil
	w.steps = 0
	for i, o := range outs {
		w.traces = append(w.traces, o.tr)
		w.cellMs[modeName(cells[i].mode)] = append(w.cellMs[modeName(cells[i].mode)], float64(o.wallNs)/1e6)
		steps := int64(len(o.tr.Access))
		w.stepNs = append(w.stepNs, float64(o.wallNs)/float64(steps))
		w.simSpeed = append(w.simSpeed, traceSeconds/(float64(o.wallNs)/1e9))
		w.steps += steps
	}
	type profOut struct {
		prof   core.Profile
		wallNs int64
	}
	profs, err := experiments.MapCells(experiments.DefaultRunner(), len(apps), func(i int) (profOut, error) {
		t0 := nowNs()
		p, err := experiments.ProfileApp(apps[i], profileSecs, w.params)
		return profOut{p, nowNs() - t0}, err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range profs {
		w.profileMs = append(w.profileMs, float64(p.wallNs)/1e6)
	}
	w.profiles = make(map[string]core.Profile)
	for i, app := range apps {
		w.profiles[app] = profs[i].prof
	}

	if w.cfg.Scorer {
		if w.cascade, err = buildCascade(w.traces, len(apps)); err != nil {
			return nil, nil, err
		}
	}
	plan := w.plan(seed)
	st, err := w.newStack(plan, false)
	if err != nil {
		return nil, nil, err
	}
	return st, plan, nil
}

// plan draws the workload's fleet from the seed.
func (w *servingWorkload) plan(seed uint64) *fleetPlan {
	return makePlan(planSpec{
		Traces:    w.traces,
		Profile:   w.cfg.Profile,
		Sessions:  w.cfg.Sessions,
		Canaries:  w.cfg.Canaries,
		Period:    w.canaryPeriod(w.cfg.NominalRate, canaryNominalRate),
		Producers: producers,
		Frame:     frameSamples,
	}, seed)
}

func indexPlan(plan *fleetPlan) map[string]*sessionPlan {
	byID := make(map[string]*sessionPlan, len(plan.Sessions))
	for _, s := range plan.Sessions {
		byID[s.ID] = s
	}
	return byID
}

// buildCascade builds the seeded, untrained cascade and fits its
// channel normalization on every scoring window of the traces.
func buildCascade(traces []*pcmTrace, apps int) (*dnn.Cascade, error) {
	c, err := dnn.NewCascade(apps, dnn.CompactLSTMFCNConfig, sim.NewRNG(cascadeSeed))
	if err != nil {
		return nil, err
	}
	var windows [][][]float64
	for _, tr := range traces {
		for s := 0; s+scoreWindow <= len(tr.Access); s += scoreWindow {
			win := make([][]float64, scoreWindow)
			for t := range win {
				win[t] = []float64{tr.Access[s+t], tr.Miss[s+t]}
			}
			windows = append(windows, win)
		}
	}
	if c.Norm, err = dnn.FitChannelNorm(windows); err != nil {
		return nil, err
	}
	return c, nil
}

func modeName(m experiments.AttackMode) string {
	switch m {
	case experiments.BusLock:
		return "buslock"
	case experiments.Cleansing:
		return "cleansing"
	case experiments.MemBW:
		return "membw"
	default:
		return "none"
	}
}

// latencies computes the phase's alarm and action latencies (ms from the
// due time of the frame carrying the decision's sample).
type latencies struct {
	alarm, action dist
	// alarmAt and actionAt are the due times (ns since the phase start)
	// of alarm.vals and action.vals, in the same order, for slicing.
	alarmAt, actionAt []float64
	unattributed      int
}

// depthSlack is the backlog growth a rung tolerates on top of doubling:
// ten frames per producer.
const depthSlack = 10 * frameSamples * producers

// canaryRate is the alarm transitions per second the canaries produce
// (at least) on a ladder rung: enough for rungSlices slices of a rung,
// each with 1,000 alarms for a measured p99. The longer nominal phase
// needs fewer per second for its p99Slices slices.
const (
	canaryRate        = 6000
	canaryNominalRate = 1200
)

// rungSlices is how many equal time slices a rung is judged in, so one
// host stall spoils one slice, not the rung.
const rungSlices = 4

func (w *servingWorkload) canaryPeriod(rate, transitions float64) int {
	return canaryPeriod(rate, w.cfg.Sessions+w.cfg.Canaries, w.cfg.Canaries, transitions)
}

// p99Slices is how many equal time slices of a phase the p99 metrics
// take the median over.
const p99Slices = 8

// actionLatency pairs each raise of a session with the first actuator
// call on that session at or after the raise's frame due time, not
// already claimed by an earlier raise. Every raise escalates the
// default ladder (migration is terminal and releases to idle), so every
// raise has a call; the due-time bound keeps calls of earlier episodes
// (sustained escalations, back-offs) from being claimed.
func actionLatency(raisesDue map[string][]float64, calls map[string][]int64) (lat, from []float64, missing int) {
	for _, sess := range sortedKeys(raisesDue) {
		cs := calls[sess]
		cur := 0
		for _, due := range raisesDue[sess] {
			for cur < len(cs) && float64(cs[cur]) < due {
				cur++
			}
			if cur == len(cs) {
				missing++
				continue
			}
			lat = append(lat, (float64(cs[cur])-due)/1e6)
			from = append(from, due)
			cur++
		}
	}
	return lat, from, missing
}

// phaseLatencies maps every alarm event and actuator call of a phase to
// its frame's due time.
func phaseLatencies(ph *phase, byID map[string]*sessionPlan) *latencies {
	l := &latencies{}
	raisesDue := make(map[string][]float64)
	for _, r := range ph.alarms {
		s := byID[r.Session]
		due := float64(ph.startNs) + ph.sc.eventDue(s, r.T)
		l.alarm.add((float64(r.At) - due) / 1e6)
		l.alarmAt = append(l.alarmAt, due-float64(ph.startNs))
		if r.Raised {
			raisesDue[r.Session] = append(raisesDue[r.Session], due)
		}
	}
	calls := make(map[string][]int64)
	for _, c := range ph.calls {
		calls[c.Session] = append(calls[c.Session], c.At)
	}
	lat, from, missing := actionLatency(raisesDue, calls)
	for i, v := range lat {
		l.action.add(v)
		l.actionAt = append(l.actionAt, from[i]-float64(ph.startNs))
	}
	l.unattributed = missing
	return l
}

// e2eOf computes a serving phase's end-to-end metrics (everything but
// setup_s, max_sps and sim_x_realtime).
func e2eOf(ph *phase, l *latencies) map[string]float64 {
	acc := float64(ph.accepted)
	return map[string]float64{
		"alarm_p50_ms":       l.alarm.q(50),
		"alarm_p99_ms":       slicedQuantile(l.alarmAt, l.alarm.vals, float64(ph.durNs), p99Slices, 99),
		"action_p50_ms":      l.action.q(50),
		"action_p99_ms":      slicedQuantile(l.actionAt, l.action.vals, float64(ph.durNs), p99Slices, 99),
		"cpu_us_per_sample":  float64(ph.after.cpuNs-ph.before.cpuNs) / 1e3 / acc,
		"alloc_b_per_sample": float64(ph.after.allocB-ph.before.allocB) / acc,
		"heap_peak_mb":       float64(ph.heapMax) / (1 << 20),
	}
}

// rung runs one ladder rung on a fresh stack.
func (w *servingWorkload) rung(plan *fleetPlan, rate float64, dur time.Duration) (rungResult, error) {
	plan = plan.withCanaryPeriod(w.canaryPeriod(rate, canaryRate))
	st, err := w.newStack(plan, false)
	if err != nil {
		return rungResult{}, err
	}
	defer st.close()
	ph, err := runPhase(st, plan, rate, dur, false)
	if err != nil {
		return rungResult{}, err
	}
	l := phaseLatencies(ph, indexPlan(plan))
	slices := sliceVerdicts(float64(ph.durNs), rungSlices, l.alarmAt, l.alarm.vals, ph.dropAt, ph.dropCum)
	r := rungResult{
		Rate:      rate,
		Sent:      ph.sent,
		Dropped:   ph.dropped + ph.scorer.WindowsDropped,
		DepthGrew: depthGrew(ph.depths, depthSlack),
		P99Ms:     l.alarm.q(rungPercentile),
		Alarms:    l.alarm.n(),
		Slices:    len(slices),
	}
	for _, ok := range slices {
		if ok {
			r.SlicesOK++
		}
	}
	fmt.Printf("  rung %8.0f samples/s: sent %d shed %d depth-grew %v alarms %d p99 %.3f ms slices ok %d/%d late-p99 %.3f ms -> pass %v\n",
		rate, r.Sent, r.Dropped, r.DepthGrew, r.Alarms, r.P99Ms, r.SlicesOK, r.Slices, lateness(ph).q(99), r.passes())
	return r, nil
}

// lateness pools the producers' per-frame lateness (ms).
func lateness(ph *phase) *dist {
	var all dist
	for _, p := range ph.prods {
		all.vals = append(all.vals, p.late.vals...)
	}
	return &all
}

// runServing executes a serving workload and returns its metrics.
func runServing(cfg servingConfig, seed uint64, seconds float64, traced bool) (*result, error) {
	w := &servingWorkload{cfg: cfg}
	res := newResult()
	var setups []float64
	var st *stack
	var plan *fleetPlan
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t0 := nowNs()
		var err error
		if st, plan, err = w.setup(seed); err != nil {
			return nil, err
		}
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	byID := indexPlan(plan)
	res.attempted++
	if producers > runtime.NumCPU() {
		res.failed++
		res.fail(fmt.Sprintf("generator: %d producers exceed nproc %d", producers, runtime.NumCPU()))
	}
	fmt.Printf("%s: %d sessions (%d canaries), %d traces, %d producers, frame %d samples; setup %.3f s (median of %v)\n",
		cfg.Name, len(plan.Sessions), cfg.Canaries, len(w.traces), producers, frameSamples, median(setups), setups)

	nominal := time.Duration(seconds * float64(time.Second))
	ph, err := runPhase(st, plan, cfg.NominalRate, nominal, false)
	if err != nil {
		st.close()
		return nil, err
	}
	checked, failed, replay := w.verify(st, plan, ph, false, res)
	st.close()
	l := phaseLatencies(ph, byID)
	e2e := e2eOf(ph, l)
	e2e["setup_s"] = median(setups)
	// The set-up's trace simulations: cells run on Parallelism()
	// workers, so the host's rate is the median per-cell speed times that.
	e2e["sim_x_realtime"] = median(w.simSpeed) * float64(experiments.Parallelism())
	res.attempted += checked
	res.failed += failed
	w.report(ph, l)

	for _, name := range e2eNames {
		res.metric(name, e2e[name])
	}
	if !traced {
		return res, nil
	}

	tst, err := w.newStack(plan, true)
	if err != nil {
		return nil, err
	}
	tph, err := runPhase(tst, plan, cfg.NominalRate, nominal, true)
	if err != nil {
		tst.close()
		return nil, err
	}
	c2, f2, replay2 := w.verify(tst, plan, tph, true, res)
	res.attempted += c2
	res.failed += f2
	w.perLayer(res, seed, tst, tph, plan, byID, e2e, median([]float64{replay, replay2}))
	tst.close()

	var rerr error
	best, rungs := ladder(cfg.NominalRate, ladderCoarse, ladderBisect, ladderRungs, func(rate float64) rungResult {
		if rerr != nil {
			return rungResult{Rate: rate}
		}
		r, err := w.rung(plan, rate, rungDuration)
		rerr = err
		return r
	})
	if rerr != nil {
		return nil, rerr
	}
	fmt.Printf("%s: max_sps %.0f after %d rungs\n", cfg.Name, best, len(rungs))
	e2e["max_sps"] = best
	if best == 0 {
		res.failed++
		res.fail(fmt.Sprintf("ladder: no rung passed in %d rungs", len(rungs)))
	}
	for _, name := range ungatedNames {
		res.metric(name, e2e[name])
	}
	return res, nil
}

// report prints the phase's human-readable summary.
func (w *servingWorkload) report(ph *phase, l *latencies) {
	qa, va := l.alarm.tail()
	qc, vc := l.action.tail()
	late := lateness(ph)
	frames := make([]int, len(ph.prods))
	for i, p := range ph.prods {
		frames[i] = p.frames
	}
	digest, err := streamDigest(ph.sc, frames)
	if err != nil {
		digest = "error: " + err.Error()
	}
	fmt.Printf("  nominal %.0f samples/s for %.1f s: sent %d accepted %d dropped %d (hub %d, scorer windows %d)\n",
		w.cfg.NominalRate, float64(ph.wallNs)/1e9, ph.sent, ph.accepted, ph.dropped, ph.hub.SamplesDropped, ph.scorer.WindowsDropped)
	fmt.Printf("  alarms %d (tail p%g = %.3f ms), actions %d (tail p%g = %.3f ms, %d raises unattributed)\n",
		l.alarm.n(), qa, va, l.action.n(), qc, vc, l.unattributed)
	fmt.Printf("  generator: %d producers, %d connections, late p50 %.3f ms p99 %.3f ms; input digest %s\n",
		len(ph.prods), len(ph.prods), late.q(50), late.q(99), digest)
}

// sessionSent returns how many samples of session s the phase sent.
func sessionSent(ph *phase, plan *fleetPlan, s *sessionPlan) int {
	n := len(plan.Order[s.Producer])
	f := ph.prods[s.Producer].frames
	if f <= s.Pos {
		return 0
	}
	return ((f - s.Pos + n - 1) / n) * plan.Frame
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
