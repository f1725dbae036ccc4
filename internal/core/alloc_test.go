package core

import (
	"math"
	"testing"

	"memdos/internal/pcm"
	"memdos/internal/sim"
)

// TestPushZeroAllocs pins the steady-state allocation contract of every
// detector's Push: once windows are full and scratch buffers have grown,
// feeding samples allocates nothing, including the samples on which a
// decision is emitted (SDS/B and SDS/P windows, SDS/U after calibration,
// whole KStest reference-and-monitor cycles, DNN window classifications).
func TestPushZeroAllocs(t *testing.T) {
	// A chunk spans 40 s of samples: more than one KStest reference
	// refresh cycle (L_R = 30 s) and hundreds of windows for the others.
	const chunk = 4000
	for _, tc := range allDetectors(t) {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.build()
			r := sim.NewRNG(42)
			i := 0
			decisions := 0
			push := func() {
				for end := i + chunk; i < end; i++ {
					access := 100 + 10*math.Sin(2*math.Pi*float64(i)/10) + r.Float64()
					// Alternate clean and collapsed stretches so alarms
					// rise and fall inside every chunk.
					if (i/1000)%2 == 1 {
						access *= 0.3
					}
					s := pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: access, MissNum: 10 + r.Float64()}
					decisions += len(d.Push(s))
				}
			}
			push() // warm-up: fill the windows, grow the scratch
			decisions = 0
			if allocs := testing.AllocsPerRun(1, push); allocs != 0 {
				t.Errorf("%s.Push: %v allocs per %d-sample chunk, want 0", tc.name, allocs, chunk)
			}
			if decisions == 0 {
				t.Errorf("%s emitted no decisions while measured", tc.name)
			}
		})
	}
}
