// Package parity implements the erasure-coding substrate used by DVDC.
//
// The paper's core scheme is single-parity XOR in the style of RAID-5: the
// checkpoints of the k virtual machines in a RAID group are XORed together
// into one parity block, and the responsibility for holding parity rotates
// across the physical nodes (internal/cluster builds that layout) so that
// every node does useful computation while also protecting its peers.
//
// Beyond plain XOR the package provides the stronger codes the paper cites as
// related work: RDP (row-diagonal parity, Corbett et al.) for tolerating any
// two simultaneous erasures, and a GF(256) Reed-Solomon coder for arbitrary
// m-erasure protection. All coders operate on equal-length byte slices and
// are deterministic and allocation-conscious; every XOR runs in the standard
// library's assembly-backed crypto/subtle.XORBytes behind this package's guards,
// every GF(256) multiply-accumulate in one AVX2 split-nibble kernel behind them
// (a product-table walk for tails and hosts without AVX2).
package parity
