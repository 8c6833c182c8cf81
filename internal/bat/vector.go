package bat

import (
	"iter"

	"repro/internal/storage"
)

// The kernel contract. A Vector is the only way a kernel is handed rows:
// the probe kernels (HashIndex.FilterVec / JoinVec) here, and the select,
// fetch and accumulation kernels of package mil. A materializing operator
// passes the identity selection Vector{Lo: lo, Hi: hi} once per morsel
// range — with Sel == nil the vector *is* the materializing call — and the
// pipeline passes its ~L1-sized windows, with or without a selection. Every
// kernel
//
//   - reads column data through the vector and never copies it;
//   - emits positions that are absolute rows of the base column, ascending
//     (a filter keeps the vector's order);
//   - emits pairs in probe order and, per probe row, ascending indexed
//     position;
//   - touches no pages: the calling operator accounts the reads (Touch),
//     the kernel computes.
//
// Two callers that hand the same rows in the same order to a kernel
// therefore get the same output, whatever the vector length.

// DefaultVectorRows is the pipeline's vector length: ~L1-sized windows for
// the fixed-width kinds (8 KB of int64 payload), small enough that a chain's
// working set — window, selection vector, probe scratch — stays cache
// resident between operators.
const DefaultVectorRows = 1024

// SelVec is a selection vector: ascending row positions into a base column.
// It is the pipeline's currency — operators pass positions, not copies of
// the rows they select.
type SelVec = []int32

// Vector is one batch of rows of a base column: a window [Lo, Hi), plus an
// optional position selection. Sel == nil means every row of the window
// qualifies (a morsel range of a materializing operator, a freshly cut
// pipeline window, a range-select run); a non-nil Sel holds the ascending
// qualifying positions, all within [Lo, Hi).
type Vector struct {
	Lo, Hi int
	Sel    SelVec
}

// Rows reports the number of selected rows.
func (v Vector) Rows() int {
	if v.Sel != nil {
		return len(v.Sel)
	}
	return v.Hi - v.Lo
}

// All iterates the selected positions in order: the one loop header of the
// kernels that need no blocking.
func (v Vector) All() iter.Seq[int32] {
	return func(yield func(int32) bool) {
		if v.Sel == nil {
			for i := int32(v.Lo); i < int32(v.Hi); i++ {
				if !yield(i) {
					return
				}
			}
			return
		}
		for _, i := range v.Sel {
			if !yield(i) {
				return
			}
		}
	}
}

// AppendRows appends the selected positions to out.
func (v Vector) AppendRows(out []int32) []int32 {
	if v.Sel != nil {
		return append(out, v.Sel...)
	}
	for i := int32(v.Lo); i < int32(v.Hi); i++ {
		out = append(out, i)
	}
	return out
}

// Touch attributes the vector's reads of column c to tracker p: one
// TouchRange span for a contiguous window (the same spans full-column scans
// report), one batch of position touches for a selection.
func (v Vector) Touch(p *storage.Tracker, c Column) {
	if p == nil {
		return
	}
	if v.Sel == nil {
		c.TouchRange(p, v.Lo, v.Hi-v.Lo)
		return
	}
	c.TouchPositions(p, v.Sel)
}
