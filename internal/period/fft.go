// Package period implements periodicity detection for counter time series:
// a discrete Fourier transform (radix-2 Cooley-Tukey with a Bluestein
// fallback for arbitrary lengths), the autocorrelation function, and the
// combined DFT-ACF period estimator of Vlachos et al. (SDM'05) that SDS/P
// uses to track the period of periodic applications.
package period

import (
	"math"
	"math/cmplx"
)

// FFT computes the discrete Fourier transform of x. The input is not
// modified. Arbitrary lengths are supported: powers of two use radix-2
// Cooley-Tukey, other lengths use Bluestein's chirp-z algorithm.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := append([]complex128(nil), x...)
		fftPow2(out, false)
		return out
	}
	return bluestein(x, false)
}

// IFFT computes the inverse discrete Fourier transform of x, including the
// 1/n normalization.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	var out []complex128
	if n&(n-1) == 0 {
		out = append([]complex128(nil), x...)
		fftPow2(out, true)
	} else {
		out = bluestein(x, true)
	}
	scale := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// FFTReal transforms a real-valued series.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// fftPow2 performs an in-place iterative radix-2 transform. inverse selects
// the conjugate (un-normalized inverse) transform.
func fftPow2(a []complex128, inverse bool) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length >> 1
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// scratch holds the working buffers of one period estimator, so repeated
// estimates over same-sized windows allocate nothing. The exported
// one-shot functions run on a fresh scratch.
type scratch struct {
	cx, out, a, b, chirp   []complex128
	centered, spec, acfOut []float64
	cands                  []candidate
}

// resize returns (*buf)[:n], growing the buffer when it is too short. The
// contents are unspecified.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n) //memdos:ignore hotalloc grow-once scratch sized to the window; reused by every later estimate
	}
	*buf = (*buf)[:n]
	return *buf
}

// bluestein computes a DFT of arbitrary length via the chirp-z transform,
// reducing it to a power-of-two convolution.
func bluestein(x []complex128, inverse bool) []complex128 {
	var s scratch
	return s.bluestein(x, inverse)
}

// bluestein is the package function with every buffer kept in s; the
// result is s.out.
func (s *scratch) bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[k] = exp(sign * i*pi*k^2/n)
	chirp := resize(&s.chirp, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for huge n in theory; series here are small.
		ang := sign * math.Pi * float64(k) * float64(k) / float64(n)
		chirp[k] = cmplx.Rect(1, ang)
	}
	a := resize(&s.a, m)
	b := resize(&s.b, m)
	clear(a)
	clear(b)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftPow2(a, false)
	fftPow2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	fftPow2(a, true)
	scale := complex(1/float64(m), 0)
	out := resize(&s.out, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

// Periodogram returns the power spectrum |X_k|^2 / n of the mean-removed
// series for k = 0..n/2 (inclusive). Removing the mean suppresses the DC
// component so dominant-frequency searches are not swamped by the offset.
func Periodogram(x []float64) []float64 {
	var s scratch
	return s.periodogram(x)
}

// periodogram is Periodogram with every buffer kept in s; the result is
// s.spec.
func (s *scratch) periodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	spec := resize(&s.cx, n)
	for i, v := range x {
		spec[i] = complex(v-mean, 0)
	}
	if n&(n-1) == 0 {
		fftPow2(spec, false)
	} else {
		spec = s.bluestein(spec, false)
	}
	half := n/2 + 1
	out := resize(&s.spec, half)
	for k := 0; k < half; k++ {
		m := cmplx.Abs(spec[k])
		out[k] = m * m / float64(n)
	}
	return out
}
