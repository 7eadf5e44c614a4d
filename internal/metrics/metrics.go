// Package metrics provides the small statistics toolkit the simulators and
// the experiments share: numerically stable summaries (Welford) and labelled
// series with CSV output. Histograms live in internal/obs's registry.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates count/mean/variance in a single pass using Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the running mean (0 with no observations).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with < 2 observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval on the mean.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// Series is a labelled sequence of (x, y) points for one curve of a figure.
type Series struct {
	Label string
	X, Y  []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the point count.
func (s *Series) Len() int { return len(s.X) }

// MinY returns the minimum y and its x ((0,0) for an empty series).
func (s *Series) MinY() (x, y float64) {
	if len(s.Y) == 0 {
		return 0, 0
	}
	mi := 0
	for i, v := range s.Y {
		if v < s.Y[mi] {
			mi = i
		}
	}
	return s.X[mi], s.Y[mi]
}

// CSV renders one or more series sharing an x-axis into CSV text. Series
// with differing x grids are merged on the union of x values; missing cells
// are empty.
func CSV(xName string, series ...*Series) string {
	var b strings.Builder
	b.WriteString(xName)
	for _, s := range series {
		b.WriteString("," + s.Label)
	}
	b.WriteString("\n")
	xs := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			val, ok := "", false
			for i, sx := range s.X {
				if sx == x {
					val, ok = fmt.Sprintf("%g", s.Y[i]), true
					break
				}
			}
			if ok {
				b.WriteString("," + val)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
