package bat

// Materialize-on-retain support (ROADMAP: view-aware accounting residual).
// SliceView results share their operand's backing, so a tiny retained view
// pins the whole operand array — and, for strings, the whole character heap
// — for as long as it lives. Unshare produces an equivalent BAT whose
// columns own exactly their logical extent, cutting that tie.

// UnshareColumn returns col itself when it owns its backing, or a compact
// materialized copy when it is a view.
func UnshareColumn(col Column) Column { return col.unshare() }

// Shared reports whether either of b's columns is a zero-copy view — i.e.
// whether retaining b pins backing storage beyond its own logical extent.
func (b *BAT) Shared() bool { return b.H.isView() || b.T.isView() }

// Unshare returns b itself when both columns own their backing, or a new
// BAT with each view column replaced by a compact copy. Properties carry
// over unchanged (a copy preserves order and keyness); accelerators do not
// — they rebuild lazily if the result is ever probed again.
func (b *BAT) Unshare() *BAT {
	if !b.Shared() {
		return b
	}
	return New(b.Name, b.H.unshare(), b.T.unshare(), b.Props)
}
