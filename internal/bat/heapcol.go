package bat

import (
	"repro/internal/storage"
)

// Heap-backed columns: the constructor path for columns whose backing
// slices are typed views over a read-only file mapping
// (internal/storage/heapfile). Three things distinguish them from ordinary
// in-memory columns:
//
//   - they are born persistent (Persist at construction), so the logical
//     fault model of storage.Pager/Tracker accounts them exactly like the
//     loader's columns — which is what keeps a store served from a mapped
//     checkpoint bit-identical in logical faults to one built in memory;
//   - they carry a storage.Hinter, and the column's own TouchRange/TouchAll
//     spans — the spans views and scans already compute for fault
//     accounting — are additionally routed into
//     madvise-style advice on the mapping. Hinting is therefore free at
//     every call site: no operator changed for out-of-core storage;
//   - their backing memory is read-only at the MMU level. That is safe
//     because BAT-algebra operands are immutable after construction
//     (the same invariant SliceView already relies on).
//
// A nil Hinter disables advice, which is the in-memory and simulator
// regime; the advise helper also suppresses sub-threshold spans so
// per-BUN touches never pay a syscall.

// adviseSpan forwards a touch span to a mapping hint. Spans below
// storage.HintMinBytes are dropped: the MMU demand-pages them anyway and
// the syscall would cost more than the fault it predicts.
func adviseSpan(h storage.Hinter, a storage.Advice, off, n int64) {
	if h == nil || n < storage.HintMinBytes {
		return
	}
	h.Advise(a, off, n)
}

// NewMappedCol wraps a mapped slice as a persistent, hint-routing
// fixed-width column.
func NewMappedCol[T Fixed](v []T, h storage.Hinter) *FixedCol[T] {
	c := &FixedCol[T]{V: v, hint: h}
	c.Persist()
	return c
}

// NewMappedStrCol assembles a string column over a mapped offset array and
// a mapped character heap (the paper's variable-size atom layout, Fig. 2).
// offHint advises the offset file, charHint the character file.
func NewMappedStrCol(off []uint32, chars string, offHint, charHint storage.Hinter) *StrCol {
	c := &StrCol{Off: off, Chars: chars, hint: offHint, charHint: charHint}
	c.Persist()
	return c
}
