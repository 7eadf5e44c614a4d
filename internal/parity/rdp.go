package parity

import (
	"errors"
	"fmt"
)

// RDP implements Row-Diagonal Parity (Corbett et al., FAST'04), the
// double-erasure code the paper cites via Wang et al. for in-memory
// checkpointing that survives two simultaneous failures.
//
// For a prime p, the logical array has p-1 rows and p+1 columns: columns
// 0..p-2 hold data, column p-1 holds row parity, and column p holds diagonal
// parity. Each column is one block; a block is split into p-1 equal row
// chunks. The diagonal of cell (r, c), c <= p-1, is (r+c) mod p; diagonals
// 0..p-2 are protected, diagonal p-1 is the conventional "missing" diagonal.
// Any two column erasures are recoverable by peeling: RDP's construction
// guarantees there is always a row or a stored diagonal with exactly one
// missing cell until everything is recovered.
type RDP struct {
	p int // prime parameter
}

// NewRDP constructs an RDP coder with prime parameter p >= 3. It protects
// p-1 data blocks with two parity blocks.
func NewRDP(p int) (*RDP, error) {
	if p < 3 {
		return nil, fmt.Errorf("parity: RDP needs p >= 3, got %d", p)
	}
	if !isPrime(p) {
		return nil, fmt.Errorf("parity: RDP parameter %d is not prime", p)
	}
	return &RDP{p: p}, nil
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// DataBlocks returns the number of data blocks the coder protects (p-1).
func (c *RDP) DataBlocks() int { return c.p - 1 }

// TotalBlocks returns data + parity block count (p+1).
func (c *RDP) TotalBlocks() int { return c.p + 1 }

// chunkLen validates the block length and returns the per-row chunk size.
func (c *RDP) chunkLen(blockLen int) (int, error) {
	rows := c.p - 1
	if blockLen == 0 || blockLen%rows != 0 {
		return 0, fmt.Errorf("parity: RDP block length %d not a positive multiple of %d", blockLen, rows)
	}
	return blockLen / rows, nil
}

// cell returns the chunk for row r of column col within blocks.
func cell(blocks [][]byte, col, r, chunk int) []byte {
	return blocks[col][r*chunk : (r+1)*chunk]
}

// Encode computes the two parity blocks for p-1 data blocks of equal length
// (a multiple of p-1 bytes). It returns (rowParity, diagParity).
func (c *RDP) Encode(data [][]byte) (rowPar, diagPar []byte, err error) {
	p := c.p
	if len(data) != p-1 {
		return nil, nil, fmt.Errorf("parity: RDP encode wants %d data blocks, got %d", p-1, len(data))
	}
	n := len(data[0])
	for i, d := range data {
		if len(d) != n {
			return nil, nil, fmt.Errorf("%w: block %d has %d bytes, want %d", ErrLengthMismatch, i, len(d), n)
		}
	}
	chunk, err := c.chunkLen(n)
	if err != nil {
		return nil, nil, err
	}
	rows := p - 1
	rowPar = make([]byte, n)
	diagPar = make([]byte, n)
	// Row parity: XOR of data columns per row.
	for col := 0; col < p-1; col++ {
		if err := XORInto(rowPar, data[col]); err != nil {
			return nil, nil, err
		}
	}
	// Diagonal parity over columns 0..p-1 (data + row parity).
	all := make([][]byte, p)
	copy(all, data)
	all[p-1] = rowPar
	for col := 0; col < p; col++ {
		for r := 0; r < rows; r++ {
			d := (r + col) % p
			if d == p-1 {
				continue // missing diagonal carries no parity
			}
			if err := XORInto(diagPar[d*chunk:(d+1)*chunk], cell(all, col, r, chunk)); err != nil {
				return nil, nil, err
			}
		}
	}
	return rowPar, diagPar, nil
}

// Reconstruct rebuilds up to two erased blocks in place. shards must have
// length p+1 with layout [data 0..p-2, rowParity, diagParity]; nil entries
// mark erasures. All present shards must share one length that is a multiple
// of p-1.
func (c *RDP) Reconstruct(shards [][]byte) error {
	p := c.p
	if len(shards) != p+1 {
		return fmt.Errorf("parity: RDP reconstruct wants %d shards, got %d", p+1, len(shards))
	}
	var missing []int
	n := -1
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
			continue
		}
		if n == -1 {
			n = len(s)
		} else if len(s) != n {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrLengthMismatch, i, len(s), n)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) > 2 {
		return fmt.Errorf("parity: RDP tolerates 2 erasures, got %d", len(missing))
	}
	if n == -1 {
		return errors.New("parity: RDP reconstruct with all shards missing")
	}
	chunk, err := c.chunkLen(n)
	if err != nil {
		return err
	}
	for _, m := range missing {
		shards[m] = make([]byte, n)
	}

	// Case A: the diagonal-parity column is among the erasures. Any other
	// erased column is recoverable from row parity alone, then diagonal
	// parity is recomputed from scratch.
	diagMissing := false
	others := make([]int, 0, 2)
	for _, m := range missing {
		if m == p {
			diagMissing = true
		} else {
			others = append(others, m)
		}
	}
	if diagMissing {
		for _, m := range others {
			if err := c.recoverByRows(shards, m, chunk); err != nil {
				return err
			}
		}
		_, diag, err := c.Encode(shards[:p-1])
		if err != nil {
			return err
		}
		copy(shards[p], diag)
		return nil
	}
	if len(others) == 1 {
		return c.recoverByRows(shards, others[0], chunk)
	}

	// Case B: two erased columns among 0..p-1. Peel: repeatedly recover the
	// unique missing cell on a stored diagonal, then the unique missing cell
	// on its row.
	a, b := others[0], others[1]
	rows := p - 1
	recovered := make([]bool, 2*rows) // [0:rows) column a cells, [rows:) column b
	done := 0
	idx := func(col, r int) int {
		if col == a {
			return r
		}
		return rows + r
	}
	colOf := func(i int) int {
		if i < rows {
			return a
		}
		return b
	}
	rowOf := func(i int) int {
		if i < rows {
			return i
		}
		return i - rows
	}
	// Peeling worklist: a cell (col, r) is solvable by its diagonal if the
	// partner column has no cell on that diagonal, or the partner's cell on
	// it is already recovered. Similarly by row. Loop until fixpoint.
	for done < 2*rows {
		progress := false
		for i := 0; i < 2*rows; i++ {
			if recovered[i] {
				continue
			}
			col, r := colOf(i), rowOf(i)
			partner := a + b - col
			// Try the row: partner's cell in row r must be recovered.
			if recovered[idx(partner, r)] {
				c.solveRow(shards, col, r, chunk)
				recovered[i] = true
				done++
				progress = true
				continue
			}
			// Try the diagonal d = (r+col) mod p, if stored.
			d := (r + col) % p
			if d == p-1 {
				continue
			}
			pr := (d - partner + p) % p // partner's row on diagonal d
			if pr == p-1 || recovered[idx(partner, pr)] {
				// Partner has no cell on d (pr == p-1) or it is known.
				c.solveDiagonal(shards, col, r, d, chunk)
				recovered[i] = true
				done++
				progress = true
			}
		}
		if !progress {
			return errors.New("parity: RDP peeling stalled (corrupt shards?)")
		}
	}
	return nil
}

// recoverByRows rebuilds erased column m (a data or row-parity column) when
// it is the only erasure among columns 0..p-1, using row parity.
func (c *RDP) recoverByRows(shards [][]byte, m, chunk int) error {
	p := c.p
	for r := 0; r < p-1; r++ {
		dst := cell(shards, m, r, chunk)
		for i := range dst {
			dst[i] = 0
		}
		for col := 0; col < p; col++ {
			if col == m {
				continue
			}
			if err := XORInto(dst, cell(shards, col, r, chunk)); err != nil {
				return err
			}
		}
	}
	return nil
}

// solveRow recovers cell (col, r) as the XOR of the other cells in row r
// across columns 0..p-1 (the row-parity relation: the XOR of a full row,
// including the row-parity column, is zero).
func (c *RDP) solveRow(shards [][]byte, col, r, chunk int) {
	dst := cell(shards, col, r, chunk)
	for i := range dst {
		dst[i] = 0
	}
	for cc := 0; cc < c.p; cc++ {
		if cc == col {
			continue
		}
		_ = XORInto(dst, cell(shards, cc, r, chunk))
	}
}

// solveDiagonal recovers cell (col, r) lying on stored diagonal d as the XOR
// of the diagonal parity chunk and every other cell on that diagonal.
func (c *RDP) solveDiagonal(shards [][]byte, col, r, d, chunk int) {
	p := c.p
	dst := cell(shards, col, r, chunk)
	copy(dst, shards[p][d*chunk:(d+1)*chunk])
	for cc := 0; cc < p; cc++ {
		if cc == col {
			continue
		}
		rr := (d - cc + p) % p
		if rr == p-1 {
			continue // column cc has no cell on diagonal d
		}
		_ = XORInto(dst, cell(shards, cc, rr, chunk))
	}
}
