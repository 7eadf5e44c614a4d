package parity

import (
	"errors"
	"fmt"
)

// RS is a systematic Reed-Solomon erasure coder over GF(256) with k data
// blocks and m parity blocks, tolerating any m erasures. The encoding matrix
// is the identity stacked on a column-scaled Cauchy matrix: every square
// submatrix of a Cauchy matrix is nonsingular, which is exactly the MDS
// condition for a systematic code, and column scaling preserves it. The
// columns are scaled so the first parity row is all ones, making parity
// block 0 identical to plain XOR parity (RAID-5 compatible). DVDC uses RS as
// the generalization beyond the paper's single-parity XOR and the RDP double
// parity it cites: protecting a RAID group of VM checkpoints against m
// simultaneous physical-node losses.
type RS struct {
	k, m   int
	matrix [][]byte // (k+m) x k encoding matrix, rows 0..k-1 = identity
}

// NewRS constructs a coder for k data and m parity blocks. k+m must not
// exceed 256 (field size) and both must be positive.
func NewRS(k, m int) (*RS, error) {
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("parity: RS requires k>0 and m>0, got k=%d m=%d", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("parity: RS requires k+m <= 256, got %d", k+m)
	}
	rows := k + m
	mat := make([][]byte, rows)
	for r := 0; r < k; r++ {
		mat[r] = make([]byte, k)
		mat[r][r] = 1
	}
	// Cauchy block: P[i][j] = 1 / (x_i + y_j) with x_i = k+i, y_j = j, all
	// distinct so x_i ^ y_j != 0.
	for i := 0; i < m; i++ {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			row[j] = gfInv(byte(k+i) ^ byte(j))
		}
		mat[k+i] = row
	}
	// Scale each column of the Cauchy block so the first parity row is all
	// ones; submatrix nonsingularity is invariant under column scaling.
	for j := 0; j < k; j++ {
		s := gfInv(mat[k][j])
		for i := 0; i < m; i++ {
			mat[k+i][j] = gfMul(mat[k+i][j], s)
		}
	}
	return &RS{k: k, m: m, matrix: mat}, nil
}

// Coef returns the encoding coefficient applied to data block dataIdx when
// computing parity block parityIdx. Because the code is linear, a change
// delta in one data block updates parity p as p ^= Coef * delta — the
// GF(256) generalization of the RAID-5 small write, which DVDC's
// multi-parity keepers use to fold checkpoint deltas without member images.
func (r *RS) Coef(parityIdx, dataIdx int) byte {
	if parityIdx < 0 || parityIdx >= r.m || dataIdx < 0 || dataIdx >= r.k {
		panic(fmt.Sprintf("parity: Coef(%d,%d) out of range for RS(%d,%d)", parityIdx, dataIdx, r.k, r.m))
	}
	return r.matrix[r.k+parityIdx][dataIdx]
}

// UpdateParity folds a data-block delta (old XOR new content of block
// dataIdx) into parity block parityIdx in place. A delta overlapping the parity
// bytes it folds into, even exactly, is refused with ErrOverlap, par untouched.
func (r *RS) UpdateParity(par []byte, parityIdx, dataIdx int, delta []byte) error {
	if len(par) < len(delta) {
		return fmt.Errorf("%w: parity %d bytes, delta %d", ErrLengthMismatch, len(par), len(delta))
	}
	dst := par[:len(delta)]
	if len(delta) > 0 && &dst[0] == &delta[0] {
		return fmt.Errorf("%w: delta is the parity block itself", ErrOverlap)
	}
	return MulSliceInto(dst, delta, r.Coef(parityIdx, dataIdx))
}

// Encode computes the m parity blocks for the given k data blocks. All data
// blocks must share one length; the returned parity blocks have that length.
func (r *RS) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != r.k {
		return nil, fmt.Errorf("parity: RS encode wants %d data blocks, got %d", r.k, len(data))
	}
	n := len(data[0])
	for i, d := range data {
		if len(d) != n {
			return nil, fmt.Errorf("%w: block %d has %d bytes, want %d", ErrLengthMismatch, i, len(d), n)
		}
	}
	par := make([][]byte, r.m)
	for p := 0; p < r.m; p++ {
		par[p] = make([]byte, n)
		row := r.matrix[r.k+p]
		for c := 0; c < r.k; c++ {
			gfMulSlice(par[p], data[c], row[c])
		}
	}
	return par, nil
}

// DecodeRow returns the coefficients that rebuild shard target (0..k-1 data,
// k..k+m-1 parity) from the k distinct shards named by present, in present's
// order: shard[target] = sum of row[i] * shard[present[i]]. It is target's
// row of the encoding matrix times the inverse of the present shards' rows —
// one row of what Reconstruct solves — so a caller that needs one block folds
// k multiply-accumulate passes and nothing for the group's other erasures.
// Over the k data shards it is the plain encoding row; for a lost data shard
// rebuilt from the other data shards plus parity 0 it is all ones (XOR).
func (r *RS) DecodeRow(target int, present []int) ([]byte, error) {
	if target < 0 || target >= r.k+r.m {
		return nil, fmt.Errorf("parity: RS decode row for shard %d of %d", target, r.k+r.m)
	}
	if len(present) != r.k {
		return nil, fmt.Errorf("parity: RS needs %d shards to reconstruct, have %d", r.k, len(present))
	}
	sub := make([][]byte, r.k)
	for i, idx := range present {
		if idx < 0 || idx >= r.k+r.m {
			return nil, fmt.Errorf("parity: RS decode row from shard %d of %d", idx, r.k+r.m)
		}
		sub[i] = r.matrix[idx]
	}
	inv, err := invertMatrix(sub) // a shard named twice makes sub singular
	if err != nil {
		return nil, err
	}
	row := make([]byte, r.k)
	for c, f := range r.matrix[target] {
		for i := range row {
			row[i] ^= gfMul(f, inv[c][i])
		}
	}
	return row, nil
}

// Reconstruct rebuilds missing blocks. shards has length k+m: indices 0..k-1
// are data blocks, k..k+m-1 parity blocks; nil entries are erased. At least
// k shards must be present. On success every entry of shards is filled in:
// erased data blocks are solved for and erased parity blocks are always
// recomputed from the completed data.
func (r *RS) Reconstruct(shards [][]byte) error {
	if len(shards) != r.k+r.m {
		return fmt.Errorf("parity: RS reconstruct wants %d shards, got %d", r.k+r.m, len(shards))
	}
	present := make([]int, 0, r.k)
	n := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if n == -1 {
			n = len(s)
		} else if len(s) != n {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrLengthMismatch, i, len(s), n)
		}
		present = append(present, i)
	}
	if len(present) < r.k {
		return fmt.Errorf("parity: RS needs %d shards to reconstruct, have %d", r.k, len(present))
	}
	missingData := false
	for i := 0; i < r.k; i++ {
		if shards[i] == nil {
			missingData = true
			break
		}
	}
	if missingData {
		// Solve for data from any k present shards: rows of the encoding
		// matrix for the chosen shards form an invertible k x k system.
		sub := make([][]byte, r.k)
		chosen := present[:r.k]
		for i, idx := range chosen {
			sub[i] = append([]byte(nil), r.matrix[idx]...)
		}
		inv, err := invertMatrix(sub)
		if err != nil {
			return err
		}
		for d := 0; d < r.k; d++ {
			if shards[d] != nil {
				continue
			}
			out := make([]byte, n)
			for j, idx := range chosen {
				gfMulSlice(out, shards[idx], inv[d][j])
			}
			shards[d] = out
		}
	}
	// Recompute any missing parity from the (now complete) data.
	for p := 0; p < r.m; p++ {
		if shards[r.k+p] != nil {
			continue
		}
		out := make([]byte, n)
		row := r.matrix[r.k+p]
		for c := 0; c < r.k; c++ {
			gfMulSlice(out, shards[c], row[c])
		}
		shards[r.k+p] = out
	}
	return nil
}

// invertMatrix inverts a square GF(256) matrix via Gauss-Jordan.
func invertMatrix(m [][]byte) ([][]byte, error) {
	k := len(m)
	work := make([][]byte, k)
	inv := make([][]byte, k)
	for i := range m {
		if len(m[i]) != k {
			return nil, errors.New("parity: invert of non-square matrix")
		}
		work[i] = append([]byte(nil), m[i]...)
		inv[i] = make([]byte, k)
		inv[i][i] = 1
	}
	for c := 0; c < k; c++ {
		pivot := -1
		for r := c; r < k; r++ {
			if work[r][c] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("parity: singular matrix")
		}
		work[c], work[pivot] = work[pivot], work[c]
		inv[c], inv[pivot] = inv[pivot], inv[c]
		pinv := gfInv(work[c][c])
		for j := 0; j < k; j++ {
			work[c][j] = gfMul(work[c][j], pinv)
			inv[c][j] = gfMul(inv[c][j], pinv)
		}
		for r := 0; r < k; r++ {
			if r == c || work[r][c] == 0 {
				continue
			}
			f := work[r][c]
			for j := 0; j < k; j++ {
				work[r][j] ^= gfMul(f, work[c][j])
				inv[r][j] ^= gfMul(f, inv[c][j])
			}
		}
	}
	return inv, nil
}
