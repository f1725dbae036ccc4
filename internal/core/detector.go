package core

import (
	"memdos/internal/metrics"
	"memdos/internal/pcm"
)

// Decision re-exports metrics.Decision: one dated alarm verdict.
type Decision = metrics.Decision

// Detector is a real-time memory-DoS detection scheme. Implementations
// consume the protected VM's PCM sample stream one sample at a time and
// emit decisions at their own cadence (every DW samples for SDS/B, every
// DWP MA values for SDS/P, every monitoring round for KStest).
type Detector interface {
	// Name identifies the scheme ("SDS/B", "SDS/P", "SDS", "KStest",
	// "DNN").
	Name() string
	// Push feeds one PCM sample and returns any decisions produced.
	// The returned slice may alias a buffer the detector reuses: it is
	// valid until the next Push on the same detector, so callers that
	// keep decisions must copy them out (append(dst, d.Push(s)...)).
	// Every detector in this package emits at most one decision per
	// sample and returns it without allocating.
	Push(s pcm.Sample) []Decision
	// Overhead returns the hypervisor CPU fraction the scheme's
	// processing consumes (the paper's Fig. 14 cost model); execution
	// throttling costs are modelled physically by the hypervisor, not
	// here.
	Overhead() float64
}

// decisionBuf is the one-element buffer a detector returns its decision
// in, so Push does not allocate (see Detector.Push for the aliasing
// contract).
type decisionBuf [1]Decision

// emit stores the decision and returns it as a one-element slice.
func (b *decisionBuf) emit(t float64, alarm bool) []Decision {
	b[0] = Decision{Time: t, Alarm: alarm}
	return b[:]
}

// violationCounter tracks consecutive anomaly observations against a
// threshold, the alarm primitive shared by every scheme in the paper
// (H_C, H_P, H_D consecutive anomalies trigger and sustain the alarm).
type violationCounter struct {
	threshold int
	count     int
}

// observe folds one observation in and reports whether the alarm is
// currently raised.
func (v *violationCounter) observe(anomalous bool) bool {
	if anomalous {
		if v.count < v.threshold {
			v.count++
		}
	} else {
		v.count = 0
	}
	return v.count >= v.threshold
}
