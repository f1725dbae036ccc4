package stats

import (
	"fmt"
	"math"
	"sort"
)

// KSResult reports a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// D is the KS statistic: the supremum distance between the two
	// empirical CDFs.
	D float64
	// PValue is the asymptotic two-sided p-value (Kolmogorov distribution
	// approximation with the Stephens effective-n correction).
	PValue float64
	// Reject reports whether the null hypothesis (same distribution) was
	// rejected at the significance level passed to KSTest.
	Reject bool
}

// KSTest performs the two-sample Kolmogorov-Smirnov test on samples a and b
// at significance level alpha (e.g. 0.05). It reports whether the two
// samples are consistent with having been drawn from the same distribution.
// This is the statistical core of the KStest baseline detector from
// Zhang et al. (AsiaCCS'17), reimplemented per Massey (1951).
func KSTest(a, b []float64, alpha float64) (KSResult, error) {
	var s KSScratch
	return s.Test(a, b, alpha)
}

// KSScratch holds the sorted copies KSTest works on. A caller that runs
// test after test (the KStest detector, once per monitoring round) keeps
// one and calls Test, which reuses the buffers instead of allocating.
type KSScratch struct {
	a, b []float64
}

// Test is KSTest with the sorted copies kept in s. The inputs are not
// modified.
func (s *KSScratch) Test(a, b []float64, alpha float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, fmt.Errorf("stats: KS test requires non-empty samples (got %d, %d)", len(a), len(b))
	}
	if alpha <= 0 || alpha >= 1 {
		return KSResult{}, fmt.Errorf("stats: KS significance %v outside (0,1)", alpha)
	}
	s.a = append(s.a[:0], a...)
	s.b = append(s.b[:0], b...)
	sort.Float64s(s.a)
	sort.Float64s(s.b)

	d := ksStatistic(s.a, s.b)
	n1, n2 := float64(len(s.a)), float64(len(s.b))
	ne := n1 * n2 / (n1 + n2)
	// Stephens' correction improves the asymptotic approximation for
	// moderate sample sizes.
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	p := ksPValue(lambda)
	return KSResult{D: d, PValue: p, Reject: p < alpha}, nil
}

// ksStatistic computes sup |F1 - F2| over sorted samples.
func ksStatistic(a, b []float64) float64 {
	var d float64
	i, j := 0, 0
	n1, n2 := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		x := a[i]
		if b[j] < x {
			x = b[j]
		}
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/n1 - float64(j)/n2)
		if diff > d {
			d = diff
		}
	}
	return d
}

// ksPValue evaluates the Kolmogorov distribution tail
// Q(lambda) = 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
