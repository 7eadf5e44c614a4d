package main

import (
	"fmt"
	"math"
	"sort"
)

// qw is the quiet-window estimate every timing gate uses: the samples, in
// run order, are cut into consecutive windows of `window` samples (the last
// window takes the remainder), each window is reduced to its median, and the
// smallest window median is reported.
//
// Interference on the shared host this suite is tuned on is one-sided — it
// only ever adds time — and arrives both as whole slow minutes and as bursts
// of a few milliseconds, so a whole-run median moves 10–30 % between identical
// runs. The quietest short window repeats far better, and the fewer samples it
// spans the better it repeats (README.md has the table); the window median,
// rather than the plain minimum, keeps a single lucky or mis-accounted sample
// (getrusage charges a still-running thread's time to the next call) from
// winning. It takes at least two samples to have a median and two windows to
// have a choice.
func qw(samples []float64, window int) (float64, error) {
	if window < 2 || len(samples) < 2*window {
		return 0, fmt.Errorf("qw: %d samples cannot fill two windows of %d (at least 2)", len(samples), window)
	}
	best := math.Inf(1)
	for lo := 0; lo+window <= len(samples); lo += window {
		hi := lo + window
		if len(samples)-hi < window {
			hi = len(samples)
		}
		if m := median(samples[lo:hi]); m < best {
			best = m
		}
	}
	return best, nil
}

// median returns the middle of xs (mean of the two middles for even counts)
// without reordering the caller's slice.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile of xs by linear interpolation between
// order statistics (p in [0,1]); NaN for an empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) computes them — the
// acceptance driver measures spread with that function, so the noise table
// must too. Needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		// 1-based position k*(n+1)/4, clamped so both neighbours exist; the
		// interpolation weight is recomputed after the clamp, as Python does.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
