package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

// paperModel is the Fig. 5 parameterization: 3 h MTBF, 2-day job.
func paperModel() Model {
	return Model{Lambda: 1.0 / (3 * 3600), T: 2 * 24 * 3600, Repair: 60}
}

func TestModelValidate(t *testing.T) {
	if err := paperModel().Validate(); err != nil {
		t.Errorf("paper model invalid: %v", err)
	}
	bad := []Model{
		{Lambda: 0, T: 1},
		{Lambda: -1, T: 1},
		{Lambda: math.NaN(), T: 1},
		{Lambda: 1, T: 0},
		{Lambda: 1, T: 1, Repair: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

func TestExpectedFailuresSmallRate(t *testing.T) {
	// For lambda*tau << 1, E[F] ~ lambda*tau.
	got := ExpectedFailures(1e-6, 100)
	if math.Abs(got-1e-4)/1e-4 > 1e-3 {
		t.Errorf("E[F] = %v, want ~1e-4", got)
	}
}

func TestNoCheckpointMatchesClassicRestartFormula(t *testing.T) {
	// With Tr=0, E[T_nochk] = (e^{lambda T} - 1)/lambda.
	m := Model{Lambda: 1e-5, T: 50000}
	want := math.Expm1(m.Lambda*m.T) / m.Lambda
	got := m.ExpectedNoCheckpoint()
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("E[T_nochk] = %v, want %v", got, want)
	}
}

func TestCheckpointingBeatsNoCheckpointing(t *testing.T) {
	m := paperModel()
	nochk := m.ExpectedNoCheckpoint()
	chk, err := m.ExpectedWithCheckpoint(600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if chk >= nochk {
		t.Errorf("checkpointing (%v) should beat restart-from-zero (%v)", chk, nochk)
	}
	if chk <= m.T {
		t.Errorf("expected time %v cannot be below fault-free %v", chk, m.T)
	}
}

func TestExpectedWithCheckpointValidation(t *testing.T) {
	m := paperModel()
	if _, err := m.ExpectedWithCheckpoint(0, 1); err == nil {
		t.Error("zero interval should fail")
	}
	if _, err := m.ExpectedWithCheckpoint(10, -1); err == nil {
		t.Error("negative overhead should fail")
	}
}

func TestRatioAboveOne(t *testing.T) {
	m := paperModel()
	r, err := m.Ratio(600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 1 {
		t.Errorf("ratio %v must exceed 1 under failures", r)
	}
}

func TestMTBF(t *testing.T) {
	m := Model{Lambda: 0.5, T: 1}
	if m.MTBF() != 2 {
		t.Errorf("MTBF = %v, want 2", m.MTBF())
	}
}

// Property: the expected-time ratio is U-shaped-ish: extremely short and
// extremely long intervals are both worse than an intermediate one, and the
// expected time always exceeds the fault-free time.
func TestQuickRatioSanity(t *testing.T) {
	m := paperModel()
	f := func(ivRaw uint16) bool {
		iv := float64(ivRaw%50000) + 1
		e, err := m.ExpectedWithCheckpoint(iv, 40e-3)
		if err != nil {
			return false
		}
		return e > m.T && !math.IsNaN(e) && !math.IsInf(e, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
