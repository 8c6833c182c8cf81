package bat

import "repro/internal/storage"

// DefaultVectorRows is the pipeline's vector length: ~L1-sized windows for
// the fixed-width kinds (8 KB of int64 payload), small enough that a chain's
// working set — window, selection vector, probe scratch — stays cache
// resident between operators.
const DefaultVectorRows = 1024

// SelVec is a selection vector: ascending row positions into a base column.
// It is the pipeline's currency — operators pass positions, not copies of
// the rows they select.
type SelVec = []int32

// Vector is one pipeline batch: a window [Lo, Hi) over a base column, plus
// an optional position selection. Sel == nil means every row of the window
// qualifies (a freshly cut window, or a range-select run); a non-nil Sel
// holds the ascending qualifying positions, all within [Lo, Hi). Either way
// a Vector never copies column data — kernels index the base column through
// it.
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

// FilterVec probes the rows selected by v and appends the positions with at
// least one match (want=true) or none (want=false) — FilterRange generalized
// to selection vectors.
func (h *HashIndex) FilterVec(p Probe, v Vector, want bool, out []int32) []int32 {
	if v.Sel == nil {
		return h.FilterRange(p, v.Lo, v.Hi, want, out)
	}
	return h.FilterPositions(p, v.Sel, want, out)
}

// JoinVec probes the rows selected by v and appends every (probe position,
// indexed position) match pair — JoinRange generalized to selection vectors.
func (h *HashIndex) JoinVec(p Probe, v Vector, lpos, rpos []int32) ([]int32, []int32) {
	if v.Sel == nil {
		return h.JoinRange(p, v.Lo, v.Hi, lpos, rpos)
	}
	return h.JoinPositions(p, v.Sel, lpos, rpos)
}

func filterPosFixed[E fixedElem](h *HashIndex, v []E, sel []int32, want bool, out []int32) []int32 {
	if h.dense {
		seq, n := uint64(h.seq), uint64(h.n)
		for _, i := range sel {
			if (uint64(v[i])-seq < n) == want {
				out = append(out, i)
			}
		}
		return out
	}
	ents, bo := h.ents, h.bucketOff
	var sbuf, ebuf [probeBlock]int32
	for base := 0; base < len(sel); base += probeBlock {
		m := len(sel) - base
		if m > probeBlock {
			m = probeBlock
		}
		for t := 0; t < m; t++ {
			b := fibHash(uint64(v[sel[base+t]])) & h.mask
			sbuf[t] = bo[b]
			ebuf[t] = bo[b+1]
		}
		for t := 0; t < m; t++ {
			i := sel[base+t]
			x := uint64(v[i])
			hit := false
			for k := sbuf[t]; k < ebuf[t]; k++ {
				if ents[k].rep == x {
					hit = true
					break
				}
			}
			if hit == want {
				out = append(out, i)
			}
		}
	}
	return out
}

// FilterPositions is FilterRange over an explicit ascending position list:
// the probed rows are sel's entries instead of a contiguous range. Emitted
// positions are sel values, preserving order.
func (h *HashIndex) FilterPositions(p Probe, sel []int32, want bool, out []int32) []int32 {
	switch {
	case p.oidV != nil:
		return filterPosFixed(h, p.oidV, sel, want, out)
	case p.intV != nil:
		return filterPosFixed(h, p.intV, sel, want, out)
	case p.dateV != nil:
		return filterPosFixed(h, p.dateV, sel, want, out)
	case p.chrV != nil:
		return filterPosFixed(h, p.chrV, sel, want, out)
	case p.void != nil:
		seq := p.void.Seq
		if h.dense {
			iseq, n := uint64(h.seq), uint64(h.n)
			for _, i := range sel {
				if (uint64(seq)+uint64(i)-iseq < n) == want {
					out = append(out, i)
				}
			}
			return out
		}
		ents := h.ents
		for _, i := range sel {
			hit := false
			if h.n > 0 {
				x := uint64(seq) + uint64(i)
				s, e := h.bucketRange(x)
				for k := s; k < e; k++ {
					if ents[k].rep == x {
						hit = true
						break
					}
				}
			}
			if hit == want {
				out = append(out, i)
			}
		}
		return out
	}
	if h.dense {
		seq, n := uint64(h.seq), uint64(h.n)
		for _, i := range sel {
			if (p.rep.Rep[i]-seq < n) == want {
				out = append(out, i)
			}
		}
		return out
	}
	ents := h.ents
	for _, i := range sel {
		hit := false
		if h.n > 0 {
			x := p.rep.Rep[i]
			s, e := h.bucketRange(x)
			for k := s; k < e; k++ {
				if ents[k].rep == x && (p.eq == nil || p.eq(i, ents[k].pos)) {
					hit = true
					break
				}
			}
		}
		if hit == want {
			out = append(out, i)
		}
	}
	return out
}

func joinPosFixed[E fixedElem](h *HashIndex, v []E, sel []int32, lpos, rpos []int32) ([]int32, []int32) {
	if h.dense {
		seq, n := uint64(h.seq), uint64(h.n)
		for _, i := range sel {
			if j := uint64(v[i]) - seq; j < n {
				lpos = append(lpos, i)
				rpos = append(rpos, int32(j))
			}
		}
		return lpos, rpos
	}
	if h.n == 0 {
		return lpos, rpos
	}
	ents, bo := h.ents, h.bucketOff
	var sbuf, ebuf [probeBlock]int32
	for base := 0; base < len(sel); base += probeBlock {
		m := len(sel) - base
		if m > probeBlock {
			m = probeBlock
		}
		for t := 0; t < m; t++ {
			b := fibHash(uint64(v[sel[base+t]])) & h.mask
			sbuf[t] = bo[b]
			ebuf[t] = bo[b+1]
		}
		for t := 0; t < m; t++ {
			i := sel[base+t]
			x := uint64(v[i])
			for k := sbuf[t]; k < ebuf[t]; k++ {
				if ents[k].rep == x {
					lpos = append(lpos, i)
					rpos = append(rpos, ents[k].pos)
				}
			}
		}
	}
	return lpos, rpos
}

// JoinPositions is JoinRange over an explicit ascending position list. Pairs
// follow sel order; per probe row, indexed positions ascend — the same
// observable order the range probe produces.
func (h *HashIndex) JoinPositions(p Probe, sel []int32, lpos, rpos []int32) ([]int32, []int32) {
	switch {
	case p.oidV != nil:
		return joinPosFixed(h, p.oidV, sel, lpos, rpos)
	case p.intV != nil:
		return joinPosFixed(h, p.intV, sel, lpos, rpos)
	case p.dateV != nil:
		return joinPosFixed(h, p.dateV, sel, lpos, rpos)
	case p.chrV != nil:
		return joinPosFixed(h, p.chrV, sel, lpos, rpos)
	case p.void != nil:
		seq := p.void.Seq
		if h.dense {
			iseq, n := uint64(h.seq), uint64(h.n)
			for _, i := range sel {
				if j := uint64(seq) + uint64(i) - iseq; j < n {
					lpos = append(lpos, i)
					rpos = append(rpos, int32(j))
				}
			}
			return lpos, rpos
		}
		if h.n == 0 {
			return lpos, rpos
		}
		ents := h.ents
		for _, i := range sel {
			x := uint64(seq) + uint64(i)
			s, e := h.bucketRange(x)
			for k := s; k < e; k++ {
				if ents[k].rep == x {
					lpos = append(lpos, i)
					rpos = append(rpos, ents[k].pos)
				}
			}
		}
		return lpos, rpos
	}
	if h.dense {
		seq, n := uint64(h.seq), uint64(h.n)
		for _, i := range sel {
			if j := p.rep.Rep[i] - seq; j < n {
				lpos = append(lpos, i)
				rpos = append(rpos, int32(j))
			}
		}
		return lpos, rpos
	}
	if h.n == 0 {
		return lpos, rpos
	}
	ents := h.ents
	for _, i := range sel {
		x := p.rep.Rep[i]
		s, e := h.bucketRange(x)
		for k := s; k < e; k++ {
			if ents[k].rep == x && (p.eq == nil || p.eq(i, ents[k].pos)) {
				lpos = append(lpos, i)
				rpos = append(rpos, ents[k].pos)
			}
		}
	}
	return lpos, rpos
}
