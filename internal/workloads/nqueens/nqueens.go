// Package nqueens is the irregular search that examples/nqueens runs,
// written on the public gowool API: one spawn per legal column at every
// level, no cut-off. Boards pack 4 bits per placed row (n ≤ MaxN), so a
// search state fits a task descriptor's integer slots.
package nqueens

import "gowool"

// MaxN is the largest supported board (4-bit column packing).
const MaxN = 15

// ok reports whether a queen at (rows, col) is compatible with board.
func ok(rows, board, col int64) bool {
	for r := int64(0); r < rows; r++ {
		c := (board >> (4 * r)) & 0xf
		if c == col || c-col == rows-r || col-c == rows-r {
			return false
		}
	}
	return true
}

var nq *gowool.TaskDef3

func init() {
	// Arguments: board (packed), rows placed, n.
	nq = gowool.Define3("nqueens", func(w *gowool.Worker, board, rows, n int64) int64 {
		if rows == n {
			return 1
		}
		spawned := 0
		for col := int64(0); col < n; col++ {
			if !ok(rows, board, col) {
				continue
			}
			nq.Spawn(w, board|col<<(4*rows), rows+1, n)
			spawned++
		}
		var total int64
		for i := 0; i < spawned; i++ {
			total += nq.Join(w)
		}
		return total
	})
}

// Count returns the number of n-queens solutions, searched on p with
// the spawn-loop/join-loop task above.
func Count(p *gowool.Pool, n int64) int64 {
	return p.Run(func(w *gowool.Worker) int64 { return nq.Call(w, 0, 0, n) })
}

// Serial is the plain recursive reference.
func Serial(n int64) int64 { return serial(0, 0, n) }

func serial(board, rows, n int64) int64 {
	if rows == n {
		return 1
	}
	var total int64
	for col := int64(0); col < n; col++ {
		if ok(rows, board, col) {
			total += serial(board|col<<(4*rows), rows+1, n)
		}
	}
	return total
}
