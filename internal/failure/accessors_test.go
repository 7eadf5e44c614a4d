package failure

import "testing"

func TestSmallAccessors(t *testing.T) {
	// Weibull reset replays exactly.
	w, err := NewWeibull(1.5, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := w.Next()
	w.Reset()
	if got := w.Next(); got != first {
		t.Errorf("Weibull replay diverged: %v != %v", got, first)
	}
}
