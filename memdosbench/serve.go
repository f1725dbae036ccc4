package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"memdos/internal/core"
	"memdos/internal/daemon"
	"memdos/internal/dnn"
	"memdos/internal/pcm"
	"memdos/internal/respond"
	"memdos/internal/stream"
)

// The serving data path, assembled in-process the way cmd/memdosd wires
// it: stream.Hub with default sizing, daemon.New over loopback HTTP, the
// respond engine through respond.Attach plus a decision-time Tick, and
// (fleet-attack) daemon.CascadeScorer through Hub.AttachScorer. Every
// layer is observed from outside through interfaces the program already
// accepts: a timing core.Detector, a timing stream.WindowScorer, a
// recording respond.Actuator, a Hub.Subscribe channel and the public
// counters.

// epoch anchors every timestamp the benchmark records (ns since epoch,
// monotonic).
var epoch = time.Now()

func nowNs() int64 { return time.Since(epoch).Nanoseconds() }

// clockNs is the cost of one nowNs call, measured once at start-up and
// subtracted from sampled Push timings (each includes about one call).
var clockNs = func() float64 {
	const n = 200_000
	t0 := nowNs()
	for i := 0; i < n; i++ {
		_ = nowNs()
	}
	return float64(nowNs()-t0) / n
}()

// scoreWindow is the cascade window (and stride): one window per 50
// samples.
const scoreWindow = 50

// pushSampleEvery is the traced run's 1-in-N sampling of detector Push
// timing: reading the clock costs about as much as one SDS Push.
const pushSampleEvery = 64

// alarmRec is one alarm transition as the benchmark's subscriber saw it.
type alarmRec struct {
	Session string
	T       float64
	Raised  bool
	At      int64 // receipt, ns since epoch
}

// actCall is one recording-actuator call.
type actCall struct {
	Session string
	Kind    string
	At      int64
}

// recActuator is a respond.Actuator that records when each call arrived.
// It is called with the engine lock held, so it only appends.
type recActuator struct {
	mu    sync.Mutex
	calls []actCall
}

func (a *recActuator) record(session, kind string) {
	at := nowNs()
	a.mu.Lock()
	a.calls = append(a.calls, actCall{Session: session, Kind: kind, At: at})
	a.mu.Unlock()
}

func (a *recActuator) Throttle(session string, _ float64) error {
	a.record(session, respond.ActionThrottle)
	return nil
}

func (a *recActuator) LimitBandwidth(session string, _ float64) error {
	a.record(session, respond.ActionBandwidth)
	return nil
}

func (a *recActuator) Partition(session string, _ bool) error {
	a.record(session, respond.ActionPartition)
	return nil
}

func (a *recActuator) Migrate(session string) (respond.MigrateResult, error) {
	a.record(session, respond.ActionMigrate)
	return respond.MigrateResult{}, nil
}

// flipRec is one alarm flip seen by the timing detector: the decision's
// timestamp, the Push start of the first sample of its frame, and the
// return of the Push that flipped the alarm.
type flipRec struct {
	T          float64
	FrameStart int64
	PushEnd    int64
}

// detRec is what one session's timing detector recorded.
type detRec struct {
	firstPush []int64 // per frame: Push start of its first sample
	flips     []flipRec
	pushNs    int64 // sampled Push time
	pushCalls int64 // sampled Push calls
}

// timedDetector wraps a session's detector: it stamps the Push of every
// frame's first sample, times 1-in-pushSampleEvery Push calls, and
// stamps the Push return of every alarm flip.
type timedDetector struct {
	inner core.Detector
	rec   *detRec
	frame int
	n     int
	alarm bool
}

func (d *timedDetector) Name() string      { return d.inner.Name() }
func (d *timedDetector) Overhead() float64 { return d.inner.Overhead() }

// StateSnapshot keeps the session views identical to an unwrapped
// detector's.
func (d *timedDetector) StateSnapshot() map[string]float64 { return core.SnapshotDetector(d.inner) }

func (d *timedDetector) Push(s pcm.Sample) []core.Decision {
	j := d.n
	d.n++
	frameStart, sampled := j%d.frame == 0, j%pushSampleEvery == 0
	var t0 int64
	if frameStart || sampled {
		t0 = nowNs()
	}
	if frameStart {
		d.rec.firstPush = append(d.rec.firstPush, t0)
	}
	out := d.inner.Push(s)
	if sampled {
		d.rec.pushNs += nowNs() - t0
		d.rec.pushCalls++
	}
	for _, dec := range out {
		if dec.Alarm != d.alarm {
			d.alarm = dec.Alarm
			fs := int64(0)
			if n := len(d.rec.firstPush); n > 0 {
				fs = d.rec.firstPush[n-1]
			}
			d.rec.flips = append(d.rec.flips, flipRec{T: dec.Time, FrameStart: fs, PushEnd: nowNs()})
		}
	}
	return out
}

// timedScorer wraps the cascade scorer: it times every ScoreFlat call and
// folds every (window, verdict) pair into an order-independent digest
// for the correctness oracle. The hub calls it from one goroutine.
type timedScorer struct {
	inner   *daemon.CascadeScorer
	calls   int64
	windows int64
	ns      int64
	digest  uint64
}

func (t *timedScorer) Window() int                 { return t.inner.Window() }
func (t *timedScorer) AttackName(class int) string { return t.inner.AttackName(class) }

func (t *timedScorer) ScoreFlat(n int, flat []float64, apps, attacks []int) {
	t0 := nowNs()
	t.inner.ScoreFlat(n, flat, apps, attacks)
	t.ns += nowNs() - t0
	t.calls++
	t.windows += int64(n)
	w2 := t.inner.Window() * 2
	for i := 0; i < n; i++ {
		t.digest += verdictHash(flat[i*w2:(i+1)*w2], apps[i], attacks[i])
	}
}

// stack is one running copy of the serving data path.
type stack struct {
	hub    *stream.Hub
	eng    *respond.Engine
	act    *recActuator
	scorer *timedScorer // traced runs only
	addr   string

	srv       *http.Server
	serveDone chan struct{}
	detach    func()
	stopTick  func()
	subCancel func()
	subDone   chan struct{}
	alarms    []alarmRec

	// opening is the session whose detector the factories build next
	// (Hub.Open calls the factory synchronously).
	opening *sessionPlan
	recs    map[string]*detRec // traced runs only
}

// newStack starts the data path and opens every session of the plan.
func (w *servingWorkload) newStack(plan *fleetPlan, traced bool) (*stack, error) {
	noop := func() {}
	st := &stack{
		hub: stream.NewHub(stream.DefaultConfig()), act: &recActuator{},
		stopTick: noop, detach: noop, subCancel: noop, subDone: make(chan struct{}),
	}
	close(st.subDone)
	if traced {
		st.recs = make(map[string]*detRec)
	}
	wrap := func(f stream.DetectorFactory) stream.DetectorFactory {
		return func() (core.Detector, error) {
			d, err := f()
			if err != nil || !traced {
				return d, err
			}
			rec := &detRec{}
			st.recs[st.opening.ID] = rec
			return &timedDetector{inner: d, rec: rec, frame: plan.Frame}, nil
		}
	}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	for name, f := range w.factories() {
		if err := st.hub.RegisterProfile(name, wrap(f)); err != nil {
			return fail(err)
		}
	}
	if w.cascade != nil {
		cs, err := daemon.NewCascadeScorer(w.cascade, scoreWindow, dnn.ScorerOptions{})
		if err != nil {
			return fail(err)
		}
		var ws stream.WindowScorer = cs
		if traced {
			st.scorer = &timedScorer{inner: cs}
			ws = st.scorer
		}
		if err := st.hub.AttachScorer(ws, stream.ScorerConfig{}); err != nil {
			return fail(err)
		}
	}
	var err error
	if st.eng, err = respond.New(respond.DefaultConfig(), st.act); err != nil {
		return fail(err)
	}
	st.detach = respond.Attach(st.hub, st.eng, 256)
	st.stopTick = tickFromDecisions(st.hub, st.eng, time.Second)

	// The benchmark's own subscriber. Its buffer holds a whole phase's
	// worth of bursts so no event is dropped; a drop fails the run.
	ch, cancel := st.hub.Subscribe(1 << 16)
	st.subCancel, st.subDone = cancel, make(chan struct{})
	go func() {
		defer close(st.subDone)
		for ev := range ch {
			st.alarms = append(st.alarms, alarmRec{Session: ev.Session, T: ev.Time, Raised: ev.Raised, At: nowNs()})
		}
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	st.addr = ln.Addr().String()
	st.srv = &http.Server{Handler: daemon.New(st.hub, st.eng)}
	st.serveDone = make(chan struct{})
	go func() {
		defer close(st.serveDone)
		if err := st.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("memdosbench: serve:", err)
		}
	}()
	for _, s := range plan.Sessions {
		st.opening = s
		if err := st.hub.Open(s.ID, s.Profile); err != nil {
			return fail(err)
		}
	}
	return st, nil
}

// close stops every goroutine the stack started and waits for them.
func (st *stack) close() {
	st.quiesce()
	if st.srv != nil {
		st.srv.Close()
		<-st.serveDone
	}
	st.hub.Close()
}

// tickFromDecisions mirrors memdosd: once per interval, advance the
// respond engine to the newest decision time on the hub so hysteresis
// progresses while the alarm feed is quiet.
func tickFromDecisions(hub *stream.Hub, eng *respond.Engine, every time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				latest := eng.Now()
				for _, in := range hub.Sessions() {
					if in.LastDecision != nil && in.LastDecision.Time > latest {
						latest = in.LastDecision.Time
					}
				}
				eng.Tick(latest)
			}
		}
	}()
	return func() { close(done); <-exited }
}

// Process counters.

type procCounters struct {
	cpuNs     int64
	allocB    uint64
	gcCycles  uint64
	gcPauseNs uint64
}

var rtSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]rtmetrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	rtmetrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpuNs:     ru.Utime.Nano() + ru.Stime.Nano(),
		allocB:    s[0].Value.Uint64(),
		gcCycles:  s[1].Value.Uint64(),
		gcPauseNs: ms.PauseTotalNs,
	}
}

func liveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// phase is one timed run of the data path at a fixed offered rate.
type phase struct {
	sc       *schedule
	startNs  int64
	durNs    int64 // scheduled length
	wallNs   int64
	prods    []*producer
	sent     uint64 // samples sent
	accepted uint64 // samples the daemon accepted
	dropped  uint64 // samples the daemon shed
	hub      stream.HubStats
	scorer   stream.ScorerStats
	eng      respond.Stats
	depths   []int64 // backlog in samples: hub queues plus queued scorer windows
	// dropAt/dropCum sample the cumulative shed count (hub samples plus
	// scorer windows) against time since the phase start.
	dropAt   []float64
	dropCum  []uint64
	dnnDepth int64
	heapMax  uint64
	before   procCounters
	after    procCounters
	alarms   []alarmRec
	calls    []actCall
}

// monitorEvery is how often queue depths and the live heap are sampled.
const monitorEvery = 20 * time.Millisecond

// runPhase drives the stack at rate samples/s for dur with the plan's
// producers, waits until every accepted sample is processed, and
// snapshots the counters.
func runPhase(st *stack, plan *fleetPlan, rate float64, dur time.Duration, traced bool) (*phase, error) {
	ph := &phase{durNs: dur.Nanoseconds()}
	for i := range plan.Order {
		p, err := dialProducer(st.addr, i)
		if err != nil {
			for _, q := range ph.prods {
				q.conn.Close()
			}
			return nil, err
		}
		ph.prods = append(ph.prods, p)
	}
	st.reserve(plan, rate, dur)
	for _, p := range ph.prods {
		frames := dur.Seconds() * rate * float64(len(plan.Order[p.id])) / float64(len(plan.Sessions)) / float64(plan.Frame)
		p.late.vals = make([]float64, 0, int(frames)+64)
	}
	ticks := int(dur/monitorEvery) + 64
	ph.depths = make([]int64, 0, ticks)
	ph.dropAt, ph.dropCum = make([]float64, 0, ticks), make([]uint64, 0, ticks)
	hub0, sc0 := st.hub.Stats(), st.hub.ScorerStats()
	shed := func(h stream.HubStats, sc stream.ScorerStats) uint64 { return h.SamplesDropped + sc.WindowsDropped }
	ph.dropAt, ph.dropCum = append(ph.dropAt, 0), append(ph.dropCum, shed(hub0, sc0))
	nAlarms := len(st.alarms)
	st.act.mu.Lock()
	nCalls := len(st.act.calls)
	st.act.mu.Unlock()
	runtime.GC()
	ph.before = readProc()
	start := time.Now().Add(2 * time.Millisecond)
	ph.startNs = start.Sub(epoch).Nanoseconds()
	ph.sc = newSchedule(plan, rate, start)

	stopMon, monDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(monDone)
		t := time.NewTicker(monitorEvery)
		defer t.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-t.C:
				hs, ss := st.hub.Stats(), st.hub.ScorerStats()
				ph.depths = append(ph.depths, hs.QueueDepth+ss.QueueDepth*int64(max(ss.Window, 1)))
				ph.dnnDepth = max(ph.dnnDepth, ss.QueueDepth)
				ph.dropAt = append(ph.dropAt, float64(nowNs()-ph.startNs))
				ph.dropCum = append(ph.dropCum, shed(hs, ss))
				if h := liveHeap(); h > ph.heapMax {
					ph.heapMax = h
				}
			}
		}
	}()

	errs := make([]error, len(ph.prods))
	var wg sync.WaitGroup
	for i, p := range ph.prods {
		wg.Add(1)
		go func(i int, p *producer) {
			defer wg.Done()
			errs[i] = p.run(ph.sc, float64(dur.Nanoseconds()), traced)
		}(i, p)
	}
	wg.Wait()
	for i, p := range ph.prods {
		resp, err := p.finish()
		if errs[i] == nil {
			errs[i] = err
		}
		ph.sent += uint64(p.frames * plan.Frame)
		ph.accepted += uint64(resp.Accepted)
		ph.dropped += uint64(resp.Dropped)
	}
	drainErr := st.hub.Drain()
	ph.wallNs = nowNs() - ph.startNs
	ph.after = readProc()
	close(stopMon)
	<-monDone
	if err := errors.Join(append(errs, drainErr)...); err != nil {
		return nil, err
	}
	hub1, sc1 := st.hub.Stats(), st.hub.ScorerStats()
	ph.dropAt, ph.dropCum = append(ph.dropAt, float64(ph.durNs-1)), append(ph.dropCum, shed(hub1, sc1))
	ph.hub = stream.HubStats{
		Sessions:          hub1.Sessions,
		SamplesIngested:   hub1.SamplesIngested - hub0.SamplesIngested,
		SamplesDropped:    hub1.SamplesDropped - hub0.SamplesDropped,
		Decisions:         hub1.Decisions - hub0.Decisions,
		AlarmsRaised:      hub1.AlarmsRaised - hub0.AlarmsRaised,
		SubscriberDropped: hub1.SubscriberDropped - hub0.SubscriberDropped,
	}
	ph.scorer = sc1
	ph.scorer.WindowsScored -= sc0.WindowsScored
	ph.scorer.WindowsDropped -= sc0.WindowsDropped
	ph.scorer.BatchesScored -= sc0.BatchesScored
	st.quiesce()
	ph.eng = st.eng.Stats()
	ph.alarms = append([]alarmRec(nil), st.alarms[nAlarms:]...)
	ph.calls = append([]actCall(nil), st.act.calls[nCalls:]...)
	return ph, nil
}

// reserve sizes the recording buffers for a whole phase up front:
// growing a slice mid-phase copies megabytes inside the subscriber, the
// engine's lock or a detector's Push, which would show up as latency
// and as heap. Call it between phases, when no event is in flight.
func (st *stack) reserve(plan *fleetPlan, rate float64, dur time.Duration) {
	perSession := rate / float64(len(plan.Sessions)) * dur.Seconds()
	events := 0.0
	for _, s := range plan.Sessions {
		if s.canary() {
			events += 2 * perSession / float64(s.Period)
		} else {
			events += perSession / 500 // SDS alarms are far rarer
		}
	}
	n := int(1.5*events) + 4096
	st.alarms = slices.Grow(st.alarms, n)
	st.act.mu.Lock()
	st.act.calls = slices.Grow(st.act.calls, n)
	st.act.mu.Unlock()
	for _, rec := range st.recs {
		rec.firstPush = slices.Grow(rec.firstPush, int(perSession)/plan.Frame+8)
	}
}

// quiesce stops the ticker, the respond engine's feed and the
// benchmark's subscriber, and waits until both feeds have delivered every
// event the hub published: after it, the recorded alarms and actuator
// calls are complete. The hub itself stays open for inspection.
func (st *stack) quiesce() {
	st.stopTick()
	st.detach()
	st.subCancel()
	<-st.subDone
	st.stopTick, st.detach, st.subCancel = func() {}, func() {}, func() {}
}
