package runtime

import "time"

// One home for every tunable default shared between the coordinator, the node
// daemon, the soak harness, and the CLI flag surfaces. The cmd/ binaries
// register flags whose defaults reference these constants (and their tests
// assert the flag defaults match), so the library and the CLIs cannot drift.
const (
	// DefaultRPCTimeout is the per-RPC I/O deadline of coordinator and
	// node-daemon calls.
	DefaultRPCTimeout = 30 * time.Second
	// DefaultFanout is the fixed concurrent-RPC width of every coordinator
	// fan-out phase (a node runs its members unbounded).
	DefaultFanout = 16
	// DefaultCommitRetries is how many commit attempts a node gets before
	// being declared dead.
	DefaultCommitRetries = 3

	// Soak-harness defaults (SoakConfig zero fields resolve to these).
	DefaultSoakRounds       = 10
	DefaultSoakSteps        = uint64(40)
	DefaultSoakPages        = 16
	DefaultSoakPageSize     = 64
	DefaultSoakRoundSeconds = 10
	DefaultSoakRPCTimeout   = 5 * time.Second
)

// withDefaults resolves every zero SoakConfig field to its default, in one
// place; RunSoak and the service-mode soak both normalize through it.
func (c SoakConfig) withDefaults() SoakConfig {
	if c.Rounds <= 0 {
		c.Rounds = DefaultSoakRounds
	}
	if c.StepsPerRound == 0 {
		c.StepsPerRound = DefaultSoakSteps
	}
	if c.Pages <= 0 {
		c.Pages = DefaultSoakPages
	}
	if c.PageSize <= 0 {
		c.PageSize = DefaultSoakPageSize
	}
	if c.RoundSeconds <= 0 {
		c.RoundSeconds = DefaultSoakRoundSeconds
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = DefaultSoakRPCTimeout
	}
	return c
}
