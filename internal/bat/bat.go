package bat

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// BAT is a Binary Association Table (Fig. 2): a head column, a tail column
// of equal length, properties, and optional search accelerators. BAT-algebra
// operations never mutate a BAT after construction (Section 4.2:
// "BAT-algebra operations materialize their result and never change their
// operands"), so sharing columns between BATs — as mirror does — is safe.
//
// BATs that correspond position by position (Section 5.1's "synced") share
// their head column: an operator that keeps every BUN of an operand hands
// on that operand's head column or a view of it (see Synced).
//
// The mutable residue — lazily built accelerators and the cached mirror
// view — is published through atomics (singleflight for the accelerator
// builds), so BATs are safe to share across concurrent sessions executing
// read-only queries.
type BAT struct {
	Name  string
	H, T  Column
	Props Props

	// detected carries run-time re-detected properties (low 16 bits, same
	// encoding as Props) plus the scanned markers — see props.go.
	// Kernels that cannot cheaply prove order/keyness strip these bits from
	// their results; the detection scan recovers them so the optimizer's
	// merge/fetch variants stay eligible. Atomic: detection may race with
	// concurrent sessions dispatching over the same intermediate.
	detected atomic.Uint32

	// Accelerator publication points (lazily built, cached, singleflight).
	// A mirror shares its original's slots with head and tail swapped, so
	// an index built through either view is visible through both. The
	// slots live inline (slots[0] = tail, slots[1] = head) and hashT/hashH
	// point at them — no per-BAT slot allocations on the intermediate-BAT
	// hot path; a mirror's pointers target its original's array.
	slots [2]accelSlot
	hashT *accelSlot  // hash table on tail values
	hashH *accelSlot  // hash table on head values
	dv    *Datavector // datavector accelerator (Section 5.2)

	mirrorMu sync.Mutex          // guards first mirror construction
	mirror   atomic.Pointer[BAT] // cached mirror view
}

// New constructs a BAT from two equal-length columns, declaring props (zero
// from operators, which claim through Derive) plus what the columns imply.
func New(name string, h, t Column, props Props) *BAT {
	if h.Len() != t.Len() {
		panic(fmt.Sprintf("bat %s: head len %d != tail len %d", name, h.Len(), t.Len()))
	}
	b := &BAT{Name: name, H: h, T: t, Props: implied(props, h, t)}
	b.hashT = &b.slots[0]
	b.hashH = &b.slots[1]
	return b
}

// Len reports the number of BUNs.
func (b *BAT) Len() int { return b.H.Len() }

// ByteSize reports the BAT's logical storage footprint (views count their
// full logical extent).
func (b *BAT) ByteSize() int64 { return b.H.ByteSize() + b.T.ByteSize() }

// OwnedByteSize reports the bytes of backing storage the BAT's columns own:
// zero-copy views (SliceView results — slices, binary-search selections,
// 100%-selectivity filters) contribute nothing, since their shared backing
// was charged once when the owning column was created. Memory accounting
// (Ctx.Account) charges owned bytes, so view-heavy plans no longer
// over-report intermediate and peak MB.
func (b *BAT) OwnedByteSize() int64 { return b.H.OwnedBytes() + b.T.OwnedBytes() }

// Mirror returns the BAT viewed with head and tail swapped. Per Section 4.2
// this is "an operation free of cost": the mirror shares the columns and
// accelerator slots of its original, so an index built through either view
// serves both. Construction is synchronized; every caller gets the same
// cached mirror.
func (b *BAT) Mirror() *BAT {
	if m := b.mirror.Load(); m != nil {
		return m
	}
	b.mirrorMu.Lock()
	defer b.mirrorMu.Unlock()
	if m := b.mirror.Load(); m != nil {
		return m
	}
	// The mirror's head is b's tail column, so it is synced with exactly
	// the BATs headed by that column, not with b.
	m := &BAT{
		Name:  b.Name + ".mirror",
		H:     b.T,
		T:     b.H,
		hashT: b.hashH,
		hashH: b.hashT,
	}
	Derive(m, Mirrored, b, nil)
	m.mirror.Store(b)
	b.mirror.Store(m)
	return m
}

// HeadValue returns the boxed head value at i.
func (b *BAT) HeadValue(i int) Value { return b.H.Get(i) }

// TailValue returns the boxed tail value at i.
func (b *BAT) TailValue(i int) Value { return b.T.Get(i) }

// Synced reports whether a and b correspond by position (Section 5.1): they
// are equally long and their heads are one column (SameColumn). Operators
// that keep every BUN of an operand in its order hand on its head column or
// a view of it, so syncedness holds by construction and nothing records it.
func Synced(a, b *BAT) bool { return a.Len() == b.Len() && SameColumn(a.H, b.H) }

// Persist marks the BAT's columns (and datavector value vector, if any) as
// persistent storage, enabling page-fault accounting on them. The bulk
// loader persists the base data; intermediate results stay transient,
// matching the paper's hot-set assumption.
func (b *BAT) Persist() {
	b.H.Persist()
	b.T.Persist()
	if b.dv != nil {
		b.dv.Vector.Persist()
	}
}

// DropHashes discards the cached hash accelerators: memory reclamation for
// long-lived BATs, and the way benchmarks force cold accelerator builds per
// iteration. The mirror shares the same slots, so its view is dropped too.
func (b *BAT) DropHashes() {
	b.hashT.drop()
	b.hashH.drop()
}

// Datavector returns the datavector accelerator attached to b, or nil.
func (b *BAT) Datavector() *Datavector { return b.dv }

// SetDatavector attaches a datavector accelerator.
func (b *BAT) SetDatavector(dv *Datavector) { b.dv = dv }

// String renders a compact description, and up to 8 BUNs, for debugging.
func (b *BAT) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s[%s,%s]#%d{%s}", b.Name, b.H.Kind(), b.T.Kind(), b.Len(), b.Props)
	n := b.Len()
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " [%s,%s]", b.H.Get(i), b.T.Get(i))
	}
	if b.Len() > 8 {
		sb.WriteString(" ...")
	}
	return sb.String()
}

// HeadValues boxes the whole head column (test helper).
func (b *BAT) HeadValues() []Value {
	out := make([]Value, b.Len())
	for i := range out {
		out[i] = b.H.Get(i)
	}
	return out
}

// TailValues boxes the whole tail column (test helper).
func (b *BAT) TailValues() []Value {
	out := make([]Value, b.Len())
	for i := range out {
		out[i] = b.T.Get(i)
	}
	return out
}
