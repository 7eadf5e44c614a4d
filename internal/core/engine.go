package core

import (
	"fmt"
	"math"

	"dvdc/internal/failure"
	"dvdc/internal/sim"
)

// Scheme abstracts a checkpointing system's costs for the discrete-event
// engine: how long a coordinated checkpoint suspends execution, and how long
// recovery takes after a given node fails. DVDC, the disk-full baseline, and
// Remus each implement it.
type Scheme interface {
	Name() string
	// CheckpointOverhead is Tov for a checkpoint closing an execution window
	// of the given length (dirty-set dependent).
	CheckpointOverhead(window float64) (float64, error)
	// RecoveryTime is the time from failure detection to resumed execution
	// after the given node fails.
	RecoveryTime(node int) (float64, error)
}

// IntervalPolicy chooses the next execution-window length given the
// previous window and the overhead its checkpoint cost. It enables the
// adaptive checkpointing the paper cites (Yi et al.): when checkpoint cost
// is not constant, the interval should track it.
type IntervalPolicy func(prevWindow, prevOverhead float64) float64

// YoungDalyPolicy adapts the interval to sqrt(2 * lastOverhead * MTBF),
// clamped to [min, max]: the first-order optimum re-derived online from the
// cost actually observed, which converges as the dirty-set behaviour
// stabilizes.
func YoungDalyPolicy(mtbf, min, max float64) IntervalPolicy {
	return func(prevWindow, prevOverhead float64) float64 {
		next := math.Sqrt(2 * prevOverhead * mtbf)
		if next < min {
			next = min
		}
		if next > max {
			next = max
		}
		return next
	}
}

// DegradedRate is an optional Scheme extension: the relative execution rate
// of the job while k nodes are simultaneously out of service (lost VMs are
// re-placed onto survivors, which then time-share). Schemes that do not
// implement it run at full rate regardless — the instant-repair idealization
// of the paper's model.
type DegradedRate interface {
	RateWithDown(k int) float64
}

// Config parameterizes one simulated job run.
type Config struct {
	JobSeconds float64 // fault-free execution length T
	Interval   float64 // checkpoint interval Tint (the initial one, if Policy is set)
	DetectSec  float64 // failure detection delay before recovery starts
	RepairSec  float64 // how long a failed node stays out of service (0 = instant repair)
	Schedule   *failure.NodeSchedule
	Scheme     Scheme
	Policy     IntervalPolicy // optional: adapts the interval between windows
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.JobSeconds <= 0 || math.IsNaN(c.JobSeconds) {
		return fmt.Errorf("core: invalid job length %v", c.JobSeconds)
	}
	if c.Interval <= 0 || math.IsNaN(c.Interval) {
		return fmt.Errorf("core: invalid checkpoint interval %v", c.Interval)
	}
	if c.DetectSec < 0 {
		return fmt.Errorf("core: negative detection delay %v", c.DetectSec)
	}
	if c.Schedule == nil {
		return fmt.Errorf("core: no failure schedule")
	}
	if c.Scheme == nil {
		return fmt.Errorf("core: no scheme")
	}
	return nil
}

// Result reports one simulated run.
type Result struct {
	Completion   float64 // wall-clock seconds to finish the job
	Ratio        float64 // Completion / JobSeconds
	Checkpoints  int
	Failures     int
	LostWork     float64 // execution seconds redone due to rollbacks
	OverheadTime float64 // seconds spent inside checkpoint windows
	RecoveryTime float64 // seconds spent detecting + recovering
	DegradedTime float64 // wall-clock seconds executed below full rate
}

// runPhase is the engine's current activity.
type runPhase int

const (
	phaseRunning runPhase = iota // executing an open window
	phaseCkpt                    // inside a checkpoint's overhead
	phaseRecover                 // detecting + recovering from a failure
)

// engineState is the run's mutable state, driven by sim events.
type engineState struct {
	eng       *sim.Engine
	cfg       Config
	committed float64 // work safely behind the last committed checkpoint
	segStart  float64 // wall time the current execution window opened
	segWork   float64 // work this window will commit
	phase     runPhase
	interval  float64 // current window length target (policy-adapted)
	downUntil map[int]float64
	rate      float64 // execution rate of the current window
	ckptTimer *sim.Timer
	ckptDone  *sim.Timer
	recTimer  *sim.Timer
	res       Result
	err       error
	nextFail  failure.Event
}

// Run simulates the job to completion and reports the result. The simulation
// alternates execution windows of Config.Interval (shorter for the final
// stretch) with checkpoint windows of scheme-dependent overhead; failures
// from the schedule interrupt either window, cost detection plus recovery,
// and roll work back to the last committed checkpoint. A failure during
// recovery restarts recovery. With RepairSec = 0 nodes return to service
// immediately after recovery (the analytical model's idealization); with a
// positive RepairSec they stay out for that long and, if the scheme
// implements DegradedRate, execution slows to the surviving fraction.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.Schedule.Reset()
	s := &engineState{eng: sim.New(), cfg: cfg, interval: cfg.Interval,
		downUntil: map[int]float64{}, rate: 1}
	s.nextFail = cfg.Schedule.Next()
	s.scheduleFailure()
	s.beginWindow()
	s.eng.Run()
	if s.err != nil {
		return Result{}, s.err
	}
	s.res.Completion = s.eng.Now()
	s.res.Ratio = s.res.Completion / cfg.JobSeconds
	return s.res, nil
}

// scheduleFailure arms the next failure event if one is pending.
func (s *engineState) scheduleFailure() {
	for !math.IsInf(s.nextFail.Time, 1) && s.nextFail.Time < s.eng.Now() {
		// Failures that "occurred" while the node was already being repaired
		// are absorbed by the repair (the schedule is memoryless anyway).
		s.nextFail = s.cfg.Schedule.Next()
	}
	if math.IsInf(s.nextFail.Time, 1) {
		return
	}
	ev := s.nextFail
	s.eng.At(ev.Time, func() { s.onFailure(ev.Node) })
	s.nextFail = s.cfg.Schedule.Next()
}

// currentRate returns the execution rate given how many nodes are still
// out of service at the current time.
func (s *engineState) currentRate() float64 {
	k := 0
	for n, until := range s.downUntil {
		if until > s.eng.Now() {
			k++
		} else {
			delete(s.downUntil, n)
		}
	}
	if k == 0 {
		return 1
	}
	if dr, ok := s.cfg.Scheme.(DegradedRate); ok {
		if r := dr.RateWithDown(k); r > 0 && r <= 1 {
			return r
		}
	}
	return 1
}

// beginWindow opens the next execution window, scheduling its checkpoint.
// The window's execution rate is sampled at its start (windows are short
// relative to repair times, so mid-window repairs are approximated).
func (s *engineState) beginWindow() {
	remaining := s.cfg.JobSeconds - s.committed
	if remaining <= 0 {
		s.eng.Halt()
		return
	}
	s.segStart = s.eng.Now()
	s.segWork = math.Min(s.interval, remaining)
	s.phase = phaseRunning
	s.rate = s.currentRate()
	if s.rate < 1 {
		s.res.DegradedTime += s.segWork / s.rate
	}
	final := s.segWork >= remaining-1e-12
	s.ckptTimer = s.eng.After(s.segWork/s.rate, func() {
		if final {
			// The job ends inside this window; no checkpoint needed after
			// the last piece of work.
			s.committed = s.cfg.JobSeconds
			s.eng.Halt()
			return
		}
		s.startCheckpoint()
	})
}

// startCheckpoint suspends execution for the scheme's overhead.
func (s *engineState) startCheckpoint() {
	ov, err := s.cfg.Scheme.CheckpointOverhead(s.segWork)
	if err != nil {
		s.fail(err)
		return
	}
	s.phase = phaseCkpt
	s.ckptDone = s.eng.After(ov, func() {
		s.committed += s.segWork
		s.res.Checkpoints++
		s.res.OverheadTime += ov
		if s.cfg.Policy != nil {
			if next := s.cfg.Policy(s.segWork, ov); next > 0 {
				s.interval = next
			}
		}
		s.beginWindow()
	})
}

// onFailure handles a node failure in any state.
func (s *engineState) onFailure(node int) {
	if s.eng.Halted() {
		return
	}
	s.res.Failures++
	// Cancel whatever was in flight; uncommitted work is lost.
	if s.ckptTimer != nil {
		s.ckptTimer.Cancel()
	}
	if s.ckptDone != nil {
		s.ckptDone.Cancel()
	}
	if s.recTimer != nil {
		s.recTimer.Cancel()
	}
	switch s.phase {
	case phaseCkpt:
		// The whole window's work plus partial checkpoint time is lost.
		s.res.LostWork += s.segWork
	case phaseRunning:
		s.res.LostWork += (s.eng.Now() - s.segStart) * s.rate
	case phaseRecover:
		// A failure during recovery restarts recovery; no additional work
		// was at risk.
	}
	s.phase = phaseRecover
	rec, err := s.cfg.Scheme.RecoveryTime(node)
	if err != nil {
		s.fail(err)
		return
	}
	total := s.cfg.DetectSec + rec
	s.res.RecoveryTime += total
	if s.cfg.RepairSec > 0 {
		s.downUntil[node] = s.eng.Now() + total + s.cfg.RepairSec
	}
	s.recTimer = s.eng.After(total, s.beginWindow)
	s.scheduleFailure()
}

func (s *engineState) fail(err error) {
	s.err = err
	s.eng.Halt()
}
