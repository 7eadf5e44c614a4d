//go:build !amd64

package parity

// gfMulSliceVec has no vector kernel to call off amd64: the table walk in
// gfMulSlice folds every byte.
func gfMulSliceVec(dst, src []byte, c byte) int { return 0 }
