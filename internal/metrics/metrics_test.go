package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Error("zero Summary should be empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Sample variance of that classic dataset is 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7)
	}
	if s.CI95() <= 0 {
		t.Error("CI95 should be positive")
	}
}

func TestSummaryMatchesNaiveComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Summary
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		xs = append(xs, x)
		s.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	naiveVar := ss / float64(len(xs)-1)
	if math.Abs(s.Mean()-mean) > 1e-9 {
		t.Errorf("mean %v vs naive %v", s.Mean(), mean)
	}
	if math.Abs(s.Var()-naiveVar)/naiveVar > 1e-9 {
		t.Errorf("var %v vs naive %v", s.Var(), naiveVar)
	}
}

func TestSeriesMinY(t *testing.T) {
	var s Series
	if x, y := s.MinY(); x != 0 || y != 0 {
		t.Error("empty series MinY should be (0,0)")
	}
	s.Append(1, 5)
	s.Append(2, 3)
	s.Append(3, 4)
	x, y := s.MinY()
	if x != 2 || y != 3 {
		t.Errorf("MinY = (%v,%v), want (2,3)", x, y)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestCSVSharedAxis(t *testing.T) {
	a := &Series{Label: "a"}
	a.Append(1, 10)
	a.Append(2, 20)
	b := &Series{Label: "b"}
	b.Append(2, 200)
	b.Append(3, 300)
	got := CSV("x", a, b)
	want := "x,a,b\n1,10,\n2,20,200\n3,,300\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// Property: Summary mean is always within [min, max].
func TestQuickSummaryMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			// Restrict to a range where x-mean cannot overflow; Summary
			// documents no guarantees at the edges of float64.
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				continue
			}
			s.Add(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return lo > hi || s.Mean() >= lo-1e-9 && s.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
