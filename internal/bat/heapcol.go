package bat

// Heap-backed columns: the constructor path for columns whose backing
// slices are typed views over a read-only file mapping
// (internal/storage/heapfile). Two things distinguish them from ordinary
// in-memory columns:
//
//   - they are born persistent (Persist at construction), so the logical
//     fault model of storage.Pager/Tracker accounts them exactly like the
//     loader's columns — which is what keeps a store served from a mapped
//     checkpoint bit-identical in logical faults to one built in memory;
//   - their backing memory is read-only at the MMU level. That is safe
//     because BAT-algebra operands are immutable after construction
//     (the same invariant SliceView already relies on).
//
// The OS pages them in on demand; no operator changed for out-of-core
// storage.

// NewMappedCol wraps a mapped slice as a persistent fixed-width column.
func NewMappedCol[T Fixed](v []T) *FixedCol[T] {
	c := &FixedCol[T]{V: v}
	c.Persist()
	return c
}

// NewMappedStrCol assembles a persistent string column over a mapped offset
// array and a mapped character heap (the paper's variable-size atom layout,
// Fig. 2).
func NewMappedStrCol(off []uint32, chars string) *StrCol {
	c := &StrCol{Off: off, Chars: chars}
	c.Persist()
	return c
}
