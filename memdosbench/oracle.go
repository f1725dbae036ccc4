package main

import (
	"fmt"
	"math"
	"reflect"

	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/pcm"
	"memdos/internal/stream"
)

// The correctness oracle: every serving session is replayed offline in
// one goroutine through a fresh detector built from the same profile,
// and its windows through a separate BatchScorer compiled from the same
// cascade. Live alarm transitions, decision counts, incidents and cascade
// verdicts must match exactly; a session that lost any sample fails.

// verdictHash hashes one scored window with its verdict (FNV-1a over the
// float bits); summing these gives an order-independent multiset digest.
func verdictHash(window []float64, app, attack int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, v := range window {
		mix(math.Float64bits(v))
	}
	mix(uint64(app))
	mix(uint64(attack))
	return h
}

// offlineScorer scores windows in batches for the oracle.
type offlineScorer struct {
	s       *dnn.BatchScorer
	flat    []float64
	apps    []int
	attacks []int
}

func newOfflineScorer(c *dnn.Cascade) (*offlineScorer, error) {
	s, err := c.Scorer(scoreWindow, dnn.ScorerOptions{})
	if err != nil {
		return nil, err
	}
	return &offlineScorer{s: s}, nil
}

// score classifies every full window of samples and returns the verdict
// multiset digest plus the last window's verdict.
func (o *offlineScorer) score(samples []pcm.Sample) (digest uint64, app, attack, windows int) {
	const batch = 64
	w2 := scoreWindow * 2
	windows = len(samples) / scoreWindow
	for lo := 0; lo < windows; lo += batch {
		n := min(batch, windows-lo)
		o.flat = o.flat[:0]
		for _, s := range samples[lo*scoreWindow : (lo+n)*scoreWindow] {
			o.flat = append(o.flat, s.AccessNum, s.MissNum)
		}
		if cap(o.apps) < n {
			o.apps, o.attacks = make([]int, batch), make([]int, batch)
		}
		o.s.ScoreFlat(n, o.flat, o.apps[:n], o.attacks[:n])
		for i := 0; i < n; i++ {
			digest += verdictHash(o.flat[i*w2:(i+1)*w2], o.apps[i], o.attacks[i])
		}
		app, attack = o.apps[n-1], o.attacks[n-1]
	}
	return digest, app, attack, windows
}

// lastWindow scores only the final full window.
func (o *offlineScorer) lastWindow(samples []pcm.Sample) (app, attack, windows int) {
	windows = len(samples) / scoreWindow
	if windows == 0 {
		return 0, 0, 0
	}
	_, app, attack, _ = o.score(samples[(windows-1)*scoreWindow : windows*scoreWindow])
	return app, attack, windows
}

// verify runs the oracle over a quiesced stack after a phase. It returns
// sessions checked, sessions (and global checks) failed, and the offline
// replay cost in ns per sample. With full set, every cascade verdict is
// compared through the scorer digest, not only the last one.
func (w *servingWorkload) verify(st *stack, plan *fleetPlan, ph *phase, full bool, res *result) (checked, failed int, replayNs float64) {
	factories := w.factories()
	var scorer *offlineScorer
	if w.cascade != nil {
		var err error
		if scorer, err = newOfflineScorer(w.cascade); err != nil {
			res.fail("oracle: " + err.Error())
			return 0, 1, math.NaN()
		}
	}
	live := make(map[string][]alarmRec)
	for _, r := range ph.alarms {
		live[r.Session] = append(live[r.Session], r)
	}
	var (
		replayTotal, replaySamples int64
		digest                     uint64
		smp                        []pcm.Sample
	)
	for _, s := range plan.Sessions {
		checked++
		bad := func(format string, args ...any) {
			failed++
			res.fail(fmt.Sprintf("session %s: ", s.ID) + fmt.Sprintf(format, args...))
		}
		n := sessionSent(ph, plan, s)
		info, ok := st.hub.Session(s.ID)
		if !ok {
			bad("missing from the hub")
			continue
		}
		if info.Ingested != uint64(n) || info.Dropped != 0 || info.Pending != 0 {
			bad("sent %d, hub ingested %d dropped %d pending %d", n, info.Ingested, info.Dropped, info.Pending)
			continue
		}
		det, err := factories[s.Profile]()
		if err != nil {
			bad("offline detector: %v", err)
			continue
		}
		smp = s.samples(smp, 0, n)
		t0 := nowNs()
		var decs []core.Decision
		for _, x := range smp {
			decs = append(decs, det.Push(x)...)
		}
		replayTotal += nowNs() - t0
		replaySamples += int64(n)

		if uint64(len(decs)) != info.Decisions {
			bad("offline %d decisions, live %d", len(decs), info.Decisions)
			continue
		}
		var want []alarmRec
		alarm := false
		raised := uint64(0)
		for _, d := range decs {
			if d.Alarm != alarm {
				alarm = d.Alarm
				want = append(want, alarmRec{Session: s.ID, T: d.Time, Raised: d.Alarm})
				if d.Alarm {
					raised++
				}
			}
		}
		if !sameTransitions(want, live[s.ID]) {
			bad("offline %d alarm transitions, live %d (or they differ)", len(want), len(live[s.ID]))
			continue
		}
		if raised != info.AlarmsRaised {
			bad("offline %d raises, live %d", raised, info.AlarmsRaised)
			continue
		}
		inc, err := core.Incidents(decs)
		if err != nil {
			bad("offline incidents: %v", err)
			continue
		}
		inc = core.MergeIncidents(inc, stream.DefaultConfig().MergeGap)
		if !(len(inc) == 0 && len(info.Incidents) == 0) && !reflect.DeepEqual(inc, info.Incidents) {
			bad("offline incidents %v, live %v", inc, info.Incidents)
			continue
		}
		if scorer == nil {
			continue
		}
		var app, attack, windows int
		if full {
			var d uint64
			d, app, attack, windows = scorer.score(smp)
			digest += d
		} else {
			app, attack, windows = scorer.lastWindow(smp)
		}
		v := info.Cascade
		switch {
		case windows == 0 && v == nil:
		case v == nil || v.Windows != uint64(windows):
			bad("offline %d cascade windows, live %+v", windows, v)
		case v.App != app || v.AttackClass != attack || v.Time != smp[windows*scoreWindow-1].Time:
			bad("last cascade verdict offline (app %d, attack %d), live %+v", app, attack, *v)
		}
	}
	if full && st.scorer != nil && st.scorer.digest != digest {
		failed++
		res.fail(fmt.Sprintf("oracle: live cascade verdict digest %x, offline %x", st.scorer.digest, digest))
	}
	checked++ // the hub- and engine-wide checks
	calls := ph.eng.Throttles + ph.eng.BandwidthLimits + ph.eng.Partitions + ph.eng.Releases + ph.eng.Migrations
	switch {
	case ph.hub.SubscriberDropped != 0:
		failed++
		res.fail(fmt.Sprintf("hub dropped %d subscriber events", ph.hub.SubscriberDropped))
	case ph.eng.ActuatorErrors != 0 || calls != uint64(len(ph.calls)):
		failed++
		res.fail(fmt.Sprintf("respond engine counts %d actions (%d errors), actuator saw %d calls", calls, ph.eng.ActuatorErrors, len(ph.calls)))
	case ph.dropped != 0 || ph.accepted != ph.sent:
		failed++
		res.fail(fmt.Sprintf("daemon accepted %d of %d samples (%d dropped)", ph.accepted, ph.sent, ph.dropped))
	case ph.scorer.WindowsDropped != 0:
		failed++
		res.fail(fmt.Sprintf("scorer shed %d windows", ph.scorer.WindowsDropped))
	}
	if replaySamples == 0 {
		return checked, failed, math.NaN()
	}
	return checked, failed, float64(replayTotal) / float64(replaySamples)
}

func sameTransitions(want, got []alarmRec) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i].T != got[i].T || want[i].Raised != got[i].Raised {
			return false
		}
	}
	return true
}
