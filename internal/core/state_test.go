package core

import (
	"math"
	"reflect"
	"testing"

	"memdos/internal/dnn"
	"memdos/internal/pcm"
	"memdos/internal/sim"
)

// stateSamples is a deterministic stream: clean sinusoid around the
// synthetic profile, then a bus-locking style AccessNum collapse.
func stateSamples(n int) []pcm.Sample {
	r := sim.NewRNG(42)
	out := make([]pcm.Sample, n)
	for i := range out {
		access := 100 + 10*math.Sin(2*math.Pi*float64(i)/10) + r.Float64()
		miss := 10 + r.Float64()
		if i >= n/2 {
			access *= 0.3
		}
		out[i] = pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: access, MissNum: miss}
	}
	return out
}

func stateParams() Params {
	p := DefaultParams()
	p.W, p.DW, p.HC, p.HP, p.HD, p.DWP = 20, 10, 2, 1, 1, 1
	return p
}

func replayAll(d Detector, samples []pcm.Sample) []Decision {
	var out []Decision
	for _, s := range samples {
		out = append(out, d.Push(s)...)
	}
	return out
}

// checkResetEquivalence verifies the Resetter contract: after Reset, the
// detector's output on a stream equals a freshly built detector's.
func checkResetEquivalence(t *testing.T, name string, build func() Detector, samples []pcm.Sample) {
	t.Helper()
	d := build()
	first := replayAll(d, samples)
	if len(first) == 0 {
		t.Fatalf("%s: stream produced no decisions", name)
	}
	if !ResetDetector(d) {
		t.Fatalf("%s does not implement Resetter", name)
	}
	second := replayAll(d, samples)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("%s: post-Reset decisions diverge (%d vs %d)", name, len(first), len(second))
	}
	fresh := replayAll(build(), samples)
	if !reflect.DeepEqual(first, fresh) {
		t.Errorf("%s: fresh-build decisions diverge", name)
	}
	if snap := SnapshotDetector(d); snap == nil || len(snap) == 0 {
		t.Errorf("%s: no state snapshot", name)
	}
}

// detectorCase builds one of the package's detectors.
type detectorCase struct {
	name  string
	build func() Detector
}

// allDetectors returns a builder for each of the eight detectors, wired
// for stateSamples streams: a synthetic profile, a periodic variant for
// SDS/P, an untrained cascade for DNN.
func allDetectors(t *testing.T) []detectorCase {
	t.Helper()
	p := stateParams()
	prof := Profile{AccessMean: 100, AccessStd: 8, MissMean: 10, MissStd: 2}
	periodic := prof
	periodic.Periodic = true
	periodic.Period = 1 // MA of a period-10 sinusoid at W=20,DW=10

	rng := sim.NewRNG(7)
	cascade, err := dnn.NewCascade(2, dnn.CompactLSTMFCNConfig, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Untrained cascade: supply an identity normalization so Classify runs.
	cascade.Norm = dnn.ChannelNorm{Mean: []float64{0, 0}, Std: []float64{1, 1}}

	return []detectorCase{
		{"SDS/B", func() Detector { d, _ := NewSDSB(prof, p); return d }},
		{"SDS/P", func() Detector { d, _ := NewSDSP(periodic, p); return d }},
		{"SDS", func() Detector { d, _ := NewSDS(periodic, p); return d }},
		{"SDS/U", func() Detector { d, _ := NewSDSU(func() float64 { return 0.9 }, p); return d }},
		{"KStest", func() Detector { d, _ := NewKSTestDetector(DefaultKSParams(), nil); return d }},
		{"DNN", func() Detector { d, _ := NewDNNDetector(cascade, p); return d }},
		{"RawThreshold", func() Detector { d, _ := NewRawThreshold(0.5); return d }},
		{"Ensemble", func() Detector {
			a, _ := NewRawThreshold(0.5)
			b, _ := NewSDSB(prof, p)
			e, _ := NewEnsemble(Any, a, b)
			return e
		}},
	}
}

func TestResetAndSnapshotAllDetectors(t *testing.T) {
	samples := stateSamples(1600)
	for _, tc := range allDetectors(t) {
		t.Run(tc.name, func(t *testing.T) {
			checkResetEquivalence(t, tc.name, tc.build, samples)
		})
	}
}

func TestSnapshotContents(t *testing.T) {
	p := stateParams()
	prof := Profile{AccessMean: 100, AccessStd: 8, MissMean: 10, MissStd: 2}
	d, err := NewSDSB(prof, p)
	if err != nil {
		t.Fatal(err)
	}
	samples := stateSamples(1600)
	replayAll(d, samples)
	snap := d.StateSnapshot()
	lo, hi := prof.AccessBounds(p.K)
	if snap["access_lo"] != lo || snap["access_hi"] != hi {
		t.Errorf("bounds in snapshot = %v/%v, want %v/%v", snap["access_lo"], snap["access_hi"], lo, hi)
	}
	// The attacked tail keeps the EWMA below the floor: the violation
	// streak must sit at its cap.
	if snap["access_violations"] != float64(p.HC) {
		t.Errorf("access_violations = %v, want %v", snap["access_violations"], p.HC)
	}
	if snap["access_ewma"] >= lo {
		t.Errorf("access_ewma = %v, want < %v under attack", snap["access_ewma"], lo)
	}

	ks, _ := NewKSTestDetector(DefaultKSParams(), nil)
	replayAll(ks, samples)
	ksSnap := ks.StateSnapshot()
	for _, key := range []string{"phase", "alarm", "consecutive_rejections", "reference_samples"} {
		if _, ok := ksSnap[key]; !ok {
			t.Errorf("KStest snapshot missing %q: %v", key, ksSnap)
		}
	}
}
