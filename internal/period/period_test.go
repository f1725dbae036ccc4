package period

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"memdos/internal/sim"
)

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = sum
	}
	return out
}

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestFFTMatchesNaivePow2(t *testing.T) {
	r := sim.NewRNG(1)
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Normal(0, 1), r.Normal(0, 1))
		}
		if !complexClose(FFT(x), naiveDFT(x), 1e-8*float64(n)) {
			t.Errorf("FFT mismatch vs naive DFT at n=%d", n)
		}
	}
}

func TestFFTMatchesNaiveArbitraryLength(t *testing.T) {
	r := sim.NewRNG(2)
	for _, n := range []int{3, 5, 6, 7, 12, 17, 31, 100, 243} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Normal(0, 1), r.Normal(0, 1))
		}
		if !complexClose(FFT(x), naiveDFT(x), 1e-7*float64(n)) {
			t.Errorf("Bluestein FFT mismatch vs naive DFT at n=%d", n)
		}
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5} // non-power-of-two
	orig := append([]complex128(nil), x...)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT modified its input")
		}
	}
	y := []complex128{1, 2, 3, 4}
	origY := append([]complex128(nil), y...)
	FFT(y)
	for i := range y {
		if y[i] != origY[i] {
			t.Fatal("FFT modified its power-of-two input")
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%120) + 1
		r := sim.NewRNG(seed)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Normal(0, 10), r.Normal(0, 10))
		}
		return complexClose(IFFT(FFT(x)), x, 1e-7*float64(n))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFFTEmpty(t *testing.T) {
	if FFT(nil) != nil || IFFT(nil) != nil {
		t.Error("FFT/IFFT of empty input should be nil")
	}
}

func TestFFTLinearity(t *testing.T) {
	r := sim.NewRNG(3)
	n := 48
	x := make([]complex128, n)
	y := make([]complex128, n)
	z := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Normal(0, 1), 0)
		y[i] = complex(r.Normal(0, 1), 0)
		z[i] = 2*x[i] + 3*y[i]
	}
	fx, fy, fz := FFT(x), FFT(y), FFT(z)
	for i := range fz {
		if cmplx.Abs(fz[i]-(2*fx[i]+3*fy[i])) > 1e-8 {
			t.Fatal("FFT not linear")
		}
	}
}

func TestParsevalTheorem(t *testing.T) {
	r := sim.NewRNG(4)
	n := 100
	x := make([]float64, n)
	var timeEnergy float64
	for i := range x {
		x[i] = r.Normal(0, 2)
		timeEnergy += x[i] * x[i]
	}
	spec := FFTReal(x)
	var freqEnergy float64
	for _, c := range spec {
		freqEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

func TestPeriodogramPureTone(t *testing.T) {
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = 50 + 10*math.Sin(2*math.Pi*8*float64(i)/float64(n))
	}
	spec := Periodogram(x)
	bestK := 0
	for k := 1; k < len(spec); k++ {
		if spec[k] > spec[bestK] {
			bestK = k
		}
	}
	if bestK != 8 {
		t.Errorf("periodogram peak at bin %d, want 8", bestK)
	}
	// The DC offset must have been removed.
	if spec[0] > 1e-12 {
		t.Errorf("DC power = %v, want ~0", spec[0])
	}
}

func TestACFBasics(t *testing.T) {
	n := 120
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 20)
	}
	acf := ACF(x, 60)
	if acf[0] != 1 {
		t.Errorf("ACF[0] = %v, want 1", acf[0])
	}
	// Lag 20 (the true period) should correlate strongly; lag 10 (the
	// half-period) should anti-correlate.
	if acf[20] < 0.8 {
		t.Errorf("ACF at true period = %v, want > 0.8", acf[20])
	}
	if acf[10] > -0.8 {
		t.Errorf("ACF at half period = %v, want < -0.8", acf[10])
	}
}

func TestACFConstantSeries(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5, 5}
	acf := ACF(x, 4)
	if acf[0] != 1 {
		t.Errorf("ACF[0] = %v", acf[0])
	}
	for lag := 1; lag <= 4; lag++ {
		if acf[lag] != 0 {
			t.Errorf("constant series ACF[%d] = %v, want 0", lag, acf[lag])
		}
	}
}

func TestACFEdgeCases(t *testing.T) {
	if ACF(nil, 5) != nil {
		t.Error("ACF(nil) should be nil")
	}
	if ACF([]float64{1, 2}, -1) != nil {
		t.Error("ACF with negative maxLag should be nil")
	}
	got := ACF([]float64{1, 2, 3}, 99)
	if len(got) != 3 {
		t.Errorf("ACF clamps maxLag: len = %d, want 3", len(got))
	}
}

func TestACFBoundedByOne(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		x := make([]float64, 64)
		for i := range x {
			x[i] = r.Normal(0, 5)
		}
		for _, v := range ACF(x, 63) {
			if v > 1+1e-9 || v < -1-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// sineSeries builds a noisy periodic series with the given period.
func sineSeries(r *sim.RNG, n int, period float64, noise float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/period) + r.Normal(0, noise)
	}
	return x
}

func TestEstimatorFindsKnownPeriod(t *testing.T) {
	r := sim.NewRNG(10)
	est := NewEstimator(DefaultEstimatorConfig())
	for _, period := range []float64{10, 17, 25, 40} {
		x := sineSeries(r, 200, period, 2)
		got := est.Estimate(x)
		if !got.Periodic {
			t.Errorf("period %v not detected", period)
			continue
		}
		if math.Abs(got.Period-period) > period*0.15 {
			t.Errorf("period %v estimated as %v", period, got.Period)
		}
	}
}

func TestEstimatorRejectsNoise(t *testing.T) {
	r := sim.NewRNG(11)
	est := NewEstimator(DefaultEstimatorConfig())
	falsePositives := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 200)
		for i := range x {
			x[i] = r.Normal(100, 10)
		}
		if est.Estimate(x).Periodic {
			falsePositives++
		}
	}
	if frac := float64(falsePositives) / trials; frac > 0.2 {
		t.Errorf("white-noise false positive rate = %v, want <= 0.2", frac)
	}
}

func TestEstimatorShortSeries(t *testing.T) {
	est := NewEstimator(DefaultEstimatorConfig())
	if est.Estimate([]float64{1, 2, 3}).Periodic {
		t.Error("short series should not be periodic")
	}
}

func TestEstimatorTracksElongatedPeriod(t *testing.T) {
	// Under attack the application's period stretches; the estimator must
	// follow. This mirrors SDS/P's detection signal (Observation 2).
	r := sim.NewRNG(12)
	est := NewEstimator(DefaultEstimatorConfig())
	normal := sineSeries(r, 200, 17, 1)
	stretched := sineSeries(r, 200, 26, 1)
	pn := est.Estimate(normal)
	ps := est.Estimate(stretched)
	if !pn.Periodic || !ps.Periodic {
		t.Fatalf("periodicity lost: %+v %+v", pn, ps)
	}
	if ps.Period <= pn.Period {
		t.Errorf("stretched period %v should exceed normal %v", ps.Period, pn.Period)
	}
}

func TestACFOnlyFindsMultiples(t *testing.T) {
	// Documented DFT-ACF motivation: plain ACF may land on a multiple of
	// the true period; DFT-ACF should land on the fundamental. We only
	// assert DFT-ACF's correctness and that ACF-only returns *some* hill.
	r := sim.NewRNG(13)
	x := sineSeries(r, 240, 20, 0.5)
	acfOnly := EstimateACFOnly(x, 0.2)
	if !acfOnly.Periodic {
		t.Fatal("ACF-only found nothing")
	}
	if mod := math.Mod(acfOnly.Period, 20); mod > 2 && mod < 18 {
		t.Errorf("ACF-only period %v is not near a multiple of 20", acfOnly.Period)
	}
	dftacf := NewEstimator(DefaultEstimatorConfig()).Estimate(x)
	if math.Abs(dftacf.Period-20) > 3 {
		t.Errorf("DFT-ACF period = %v, want ~20", dftacf.Period)
	}
}

func TestDFTOnlyOnTone(t *testing.T) {
	r := sim.NewRNG(14)
	x := sineSeries(r, 200, 25, 0.5)
	got := EstimateDFTOnly(x)
	if !got.Periodic || math.Abs(got.Period-25) > 4 {
		t.Errorf("DFT-only period = %+v, want ~25", got)
	}
	if EstimateDFTOnly([]float64{1, 2}).Periodic {
		t.Error("DFT-only on tiny series should not be periodic")
	}
}

func TestEstimatorDefaultsFilledIn(t *testing.T) {
	est := NewEstimator(EstimatorConfig{})
	if est.cfg.MaxCandidates != 5 || est.cfg.PowerFactor != 3 {
		t.Errorf("zero config not defaulted: %+v", est.cfg)
	}
}

func TestIsACFPeakPlateau(t *testing.T) {
	acf := []float64{0, 0.5, 0.9, 0.9, 0.5, 0}
	if !isACFPeak(acf, 2) || !isACFPeak(acf, 3) {
		t.Error("plateau peak not detected")
	}
	if isACFPeak(acf, 0) || isACFPeak(acf, 5) {
		t.Error("boundary lags cannot be peaks")
	}
	if isACFPeak(acf, 4) {
		t.Error("descending lag misreported as peak")
	}
}

// TestEstimatorReuseMatchesFresh: an estimator whose scratch buffers
// were sized by earlier windows (longer, shorter, power-of-two or not)
// returns exactly what a fresh estimator returns.
func TestEstimatorReuseMatchesFresh(t *testing.T) {
	r := sim.NewRNG(11)
	reused := NewEstimator(DefaultEstimatorConfig())
	for _, n := range []int{200, 34, 64, 128, 17, 200, 8, 90} {
		x := sineSeries(r, n, float64(n)/5, 1)
		got := reused.Estimate(x)
		want := NewEstimator(DefaultEstimatorConfig()).Estimate(x)
		if got != want {
			t.Errorf("n=%d: reused estimator %+v, fresh %+v", n, got, want)
		}
	}
}

// TestEstimateZeroAllocs pins Estimator.Estimate at 0 allocs once its
// scratch has grown to the window size, for both FFT paths (radix-2 and
// Bluestein).
func TestEstimateZeroAllocs(t *testing.T) {
	r := sim.NewRNG(12)
	for _, n := range []int{64, 34} {
		x := sineSeries(r, n, 8.5, 1)
		est := NewEstimator(DefaultEstimatorConfig())
		if !est.Estimate(x).Periodic {
			t.Fatalf("n=%d: test series not periodic", n)
		}
		if allocs := testing.AllocsPerRun(20, func() { est.Estimate(x) }); allocs != 0 {
			t.Errorf("n=%d: Estimate allocs %v, want 0", n, allocs)
		}
	}
}
