// Package analytic implements the paper's Section V model: expected time to
// completion of a long-running job under Poisson failures, with and without
// checkpointing, including non-negligible checkpoint overhead and repair
// time; plus the overhead sub-models for disk-full and diskless (DVDC)
// checkpointing that Fig. 5 compares, and an optimal-interval search.
//
// # Corrections to the printed equations
//
// The paper's derivation treats execution as a sequence of segments, each of
// which must complete failure-free; a failure inside a segment costs the
// expended time plus a repair, and the segment restarts. For a segment of
// length tau and rate lambda the success probability is p = exp(-lambda*tau),
// so the expected number of failures before success is (1-p)/p =
// exp(lambda*tau) - 1. The paper prints E[F] = e^{-lambda(N+Tov)} - 1, which
// is negative, and Eq. 3 keeps T rather than N inside the exponentials; both
// are evident typos. This package implements the corrected forms, and the
// Monte-Carlo experiment (E2) verifies them against event simulation.
//
// Usefully, the corrected segment expectation has a closed form:
//
//	E[segment] = (e^{lambda*tau} - 1) * (1/lambda + Tr)
//
// which for Tr = 0 and tau = T reduces to the classic restart formula
// (e^{lambda*T} - 1)/lambda.
package analytic

import (
	"fmt"
	"math"
)

// Model carries the job- and platform-level parameters of Section V.
type Model struct {
	Lambda float64 // failure rate, failures/sec (1/MTBF)
	T      float64 // fault-free execution length, seconds
	Repair float64 // Tr: repair time charged per failure, seconds
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.Lambda <= 0 || math.IsNaN(m.Lambda) || math.IsInf(m.Lambda, 0) {
		return fmt.Errorf("analytic: invalid lambda %v", m.Lambda)
	}
	if m.T <= 0 || math.IsNaN(m.T) {
		return fmt.Errorf("analytic: invalid T %v", m.T)
	}
	if m.Repair < 0 || math.IsNaN(m.Repair) {
		return fmt.Errorf("analytic: invalid repair time %v", m.Repair)
	}
	return nil
}

// ExpectedFailures is E[F] for one segment of length tau: the mean number of
// failed attempts before the first failure-free pass, e^{lambda*tau} - 1.
func ExpectedFailures(lambda, tau float64) float64 {
	return math.Expm1(lambda * tau)
}

// SegmentTime is the expected wall-clock time to push one segment of length
// tau through to a failure-free completion, paying Repair per failure, in
// closed form: (e^{lambda*tau}-1)(1/lambda + Tr). It equals the paper's
// E[F]*(E[T_fail | T_fail < tau] + Tr) + tau presentation term by term but is
// numerically robust at large lambda*tau.
func (m Model) SegmentTime(tau float64) float64 {
	return ExpectedFailures(m.Lambda, tau) * (1/m.Lambda + m.Repair)
}

// ExpectedNoCheckpoint is Eq. 1: the expected completion time when any
// failure restarts the job from the beginning.
func (m Model) ExpectedNoCheckpoint() float64 {
	return m.SegmentTime(m.T)
}

// ExpectedWithCheckpoint is the Section V overhead model (corrected): the
// job is T/N segments, each of effective length N + Tov.
func (m Model) ExpectedWithCheckpoint(interval, overhead float64) (float64, error) {
	if interval <= 0 {
		return 0, fmt.Errorf("analytic: checkpoint interval must be positive, got %v", interval)
	}
	if overhead < 0 {
		return 0, fmt.Errorf("analytic: negative overhead %v", overhead)
	}
	segments := m.T / interval
	return segments * m.SegmentTime(interval+overhead), nil
}

// Ratio is the Fig. 5 y-axis: expected completion time divided by the
// fault-free execution time T.
func (m Model) Ratio(interval, overhead float64) (float64, error) {
	e, err := m.ExpectedWithCheckpoint(interval, overhead)
	if err != nil {
		return 0, err
	}
	return e / m.T, nil
}

// MTBF returns 1/lambda for presentation.
func (m Model) MTBF() float64 { return 1 / m.Lambda }
