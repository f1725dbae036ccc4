package core

import "memdos/internal/dnn"

// This file makes detector pipelines reusable and inspectable: every
// detector in the package implements Resetter (return to the
// just-constructed state, keeping its configuration, profile and trained
// weights) and Snapshotter (a flat numeric view of the mutable state).
// The streaming hub relies on both — Reset lets a session pipeline be
// recycled for a reconnecting VM, StateSnapshot backs the per-session
// inspection endpoint.

// Resetter is implemented by detectors whose internal state can be
// cleared without rebuilding them.
type Resetter interface {
	// Reset returns the detector to its just-constructed state. Static
	// configuration (parameters, profiles, trained weights) is preserved.
	Reset()
}

// Snapshotter is implemented by detectors that can expose their mutable
// state as a flat name → value map. Booleans are encoded as 0/1 and
// enums as their integer value, keeping the map JSON-friendly.
type Snapshotter interface {
	StateSnapshot() map[string]float64
}

// ResetDetector resets d if it supports Resetter and reports whether it
// did.
func ResetDetector(d Detector) bool {
	r, ok := d.(Resetter)
	if ok {
		r.Reset()
	}
	return ok
}

// SnapshotDetector returns d's state snapshot, or nil when d does not
// support Snapshotter.
func SnapshotDetector(d Detector) map[string]float64 {
	if s, ok := d.(Snapshotter); ok {
		return s.StateSnapshot()
	}
	return nil
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Reset clears the violation streak.
func (v *violationCounter) reset() { v.count = 0 }

// Reset returns SDS/B to its just-constructed state; the profile and
// parameters are kept.
func (d *SDSB) Reset() {
	d.accMA.Reset()
	d.missMA.Reset()
	d.accEW.Reset()
	d.missEW.Reset()
	d.accViol.reset()
	d.missViol.reset()
}

// StateSnapshot exposes SDS/B's smoothing state, profiled bounds and
// violation streaks.
func (d *SDSB) StateSnapshot() map[string]float64 {
	accLo, accHi := d.profile.AccessBounds(d.params.K)
	missLo, missHi := d.profile.MissBounds(d.params.K)
	return map[string]float64{
		"access_ewma":       d.accEW.Value(),
		"miss_ewma":         d.missEW.Value(),
		"access_lo":         accLo,
		"access_hi":         accHi,
		"miss_lo":           missLo,
		"miss_hi":           missHi,
		"access_violations": float64(d.accViol.count),
		"miss_violations":   float64(d.missViol.count),
	}
}

// Reset returns SDS/P to its just-constructed state.
func (d *SDSP) Reset() {
	d.ma.Reset()
	d.maHistory = d.maBuf[:0]
	d.sinceEval = 0
	d.viol.reset()
	d.lastPeriod = 0
}

// StateSnapshot exposes SDS/P's period tracking state.
func (d *SDSP) StateSnapshot() map[string]float64 {
	return map[string]float64{
		"last_period":       d.lastPeriod,
		"normal_period":     d.profile.Period,
		"window_fill":       float64(len(d.maHistory)),
		"period_violations": float64(d.viol.count),
	}
}

// Reset returns the combined SDS to its just-constructed state.
func (d *SDS) Reset() {
	d.b.Reset()
	if d.p != nil {
		d.p.Reset()
	}
	d.bAlarm, d.pAlarm = false, false
}

// StateSnapshot merges the sub-schemes' snapshots under b_/p_ prefixes.
func (d *SDS) StateSnapshot() map[string]float64 {
	out := map[string]float64{
		"b_alarm": boolVal(d.bAlarm),
		"p_alarm": boolVal(d.pAlarm),
	}
	for k, v := range d.b.StateSnapshot() {
		out["b_"+k] = v
	}
	if d.p != nil {
		for k, v := range d.p.StateSnapshot() {
			out["p_"+k] = v
		}
	}
	return out
}

// Reset returns SDS/U to its just-constructed (uncalibrated) state: the
// warm-up calibration runs again on the next samples.
func (d *SDSU) Reset() {
	d.utilMA.Reset()
	d.missMA.Reset()
	d.utilEW.Reset()
	d.missEW.Reset()
	d.utilCal = d.utilCal[:0]
	d.missCal = d.missCal[:0]
	d.calibrated = false
	d.utilFloor, d.missCeil = 0, 0
	d.utilViol.reset()
	d.missViol.reset()
}

// StateSnapshot exposes SDS/U's calibration and violation state.
func (d *SDSU) StateSnapshot() map[string]float64 {
	return map[string]float64{
		"calibrated":      boolVal(d.calibrated),
		"util_floor":      d.utilFloor,
		"miss_ceiling":    d.missCeil,
		"util_ewma":       d.utilEW.Value(),
		"miss_ewma":       d.missEW.Value(),
		"util_violations": float64(d.utilViol.count),
		"miss_violations": float64(d.missViol.count),
	}
}

// Reset returns the KStest baseline to its just-constructed state: the
// next sample starts a fresh reference-collection cycle.
func (d *KSTestDetector) Reset() {
	d.phase = ksCollectReference
	d.phaseStart, d.cycleStart, d.nextTest = 0, 0, 0
	d.started = false
	d.refAccess = d.refAccess[:0]
	d.refMiss = d.refMiss[:0]
	d.monAccess = d.monAccess[:0]
	d.monMiss = d.monMiss[:0]
	d.viol.reset()
	d.clear.reset()
	d.alarm = false
}

// StateSnapshot exposes the protocol phase and test streaks.
func (d *KSTestDetector) StateSnapshot() map[string]float64 {
	return map[string]float64{
		"phase":                  float64(d.phase),
		"alarm":                  boolVal(d.alarm),
		"consecutive_rejections": float64(d.viol.count),
		"consecutive_accepts":    float64(d.clear.count),
		"reference_samples":      float64(len(d.refAccess)),
		"monitored_samples":      float64(len(d.monAccess)),
	}
}

// Reset returns the DNN detector to its just-constructed state; the
// trained cascade weights are untouched.
func (d *DNNDetector) Reset() {
	d.win = d.rows[:0]
	d.sinceEval = 0
	d.viol.reset()
	d.lastApp = -1
	d.lastAttack = dnn.ClassNoAttack
}

// StateSnapshot exposes the window fill and latest classification.
func (d *DNNDetector) StateSnapshot() map[string]float64 {
	return map[string]float64{
		"window_fill":       float64(len(d.win)),
		"last_app":          float64(d.lastApp),
		"last_attack_class": float64(d.lastAttack),
		"violations":        float64(d.viol.count),
	}
}

// Reset forgets the previous sample.
func (d *RawThreshold) Reset() { d.prev, d.hasPrev = 0, false }

// StateSnapshot exposes the reference sample.
func (d *RawThreshold) StateSnapshot() map[string]float64 {
	return map[string]float64{"prev": d.prev, "has_prev": boolVal(d.hasPrev)}
}

// Reset resets every member implementing Resetter and clears the vote
// state. It reports nothing about members that do not support Reset; use
// ResetDetector per member when that matters.
func (e *Ensemble) Reset() {
	for i, m := range e.members {
		ResetDetector(m)
		e.state[i] = false
		e.decided[i] = false
	}
}

// StateSnapshot exposes each member's latest alarm state.
func (e *Ensemble) StateSnapshot() map[string]float64 {
	out := make(map[string]float64, 2*len(e.members))
	for i, m := range e.members {
		out[m.Name()+"_alarm"] = boolVal(e.state[i])
		out[m.Name()+"_decided"] = boolVal(e.decided[i])
	}
	return out
}
