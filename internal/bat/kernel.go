package bat

import (
	"math"
	"slices"
)

// This file is the typed kernel layer: allocation-free primitives that let
// the MIL operators run as tight array loops over the columns' backing
// slices instead of detouring through boxed Values — the execution style the
// paper attributes to the flattened binary algebra ("simple operations on
// arrays of simple fixed-size values", Section 5).
//
// The common currency is the key representation: every column value is
// condensed into one uint64 *rep*. For fixed-width kinds the rep is the
// value itself (rep equality ⇔ value equality; Exact). For strings and
// floats the rep is a hash resp. the bit pattern, and an equality verifier
// on the original column settles collisions (map-key semantics: NaN never
// equals itself, -0 equals +0).
//
// The Grouper contract (group, unique, aggregation, union, composite-key
// join). Keys that need no hashing skip it: group, synced group2, unique and
// the unordered aggregations first try the DenseGrouper (dense.go), which
// gives exact keys (oid, void, int, date, chr, bit) of small span over the
// grouped rows their slots by direct index, with the identical
// first-occurrence ids. Wide, float, string and un-synced keys, union and
// the composite-key join come here. Equality is fixed at construction:
// NewGrouper takes the verifier that settles rep collisions — one interface
// conversion per table — and Slot takes only rep and row, so a per-row
// verifier argument, and its per-row boxing, cannot be written. The table
// starts at grouperMinBuckets (inputs typically hold 4–200 distinct keys in
// 100k rows) and doubles when the slots outnumber the buckets, re-linking
// the chains from the per-slot reps; nothing is sized by the input's row
// count unless the caller Reserves (the composite-key join's build side,
// whose keys are mostly distinct; Find probes it without adding the probe
// side's keys). Slot ids are first-occurrence order whatever the table size
// was at the time: the k-th distinct key gets slot k, as the group oid of a
// sequential boxed scan.

const fibMul = 0x9E3779B97F4A7C15

// fibHash is Fibonacci multiplicative hashing of a 64-bit key to 32 bits.
func fibHash(x uint64) uint32 { return uint32((x * fibMul) >> 32) }

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Mix combines two key reps into a composite rep (group refinement, BUN
// dedup). Mixing is not injective, so composite keys always need verifying.
func Mix(a, b uint64) uint64 {
	return a*0xBF58476D1CE4E5B9 ^ b*0x94D049BB133111EB
}

func nextPow2(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// KeyEq verifies that the rows a and b hold equal key values; it is consulted
// by the hash kernels when rep equality alone is not conclusive.
type KeyEq interface {
	KeyEqual(a, b int32) bool
}

// KeyRep is the key representation of one column: one uint64 per row. It is
// handled by pointer, so that passing it as a KeyEq converts without
// allocating.
type KeyRep struct {
	Rep   []uint64
	Exact bool // rep equality ⇔ value equality
	col   Column
}

// NewKeyRep builds the key representation of col.
func NewKeyRep(c Column) *KeyRep { return NewKeyRepP(c, Sched{Workers: 1}) }

// NewKeyRepP builds the key representation of col, filling the rep vector
// under s, one row piece per worker (the fill is embarrassingly parallel;
// every schedule yields the identical vector).
func NewKeyRepP(c Column, s Sched) *KeyRep {
	n := c.Len()
	rep := make([]uint64, n)
	if s.Workers <= 1 {
		fillKeyReps(c, rep, 0)
	} else {
		bounds := splitRange(n, s.workersOver(n))
		s.Dispatch(SiteKeyRep, len(bounds), func(_, w int) {
			fillKeyReps(c, rep[bounds[w][0]:bounds[w][1]], bounds[w][0])
		})
	}
	return &KeyRep{Rep: rep, Exact: repExact(c), col: c}
}

// repExact reports whether rep equality is conclusive for col's kind:
// floats (NaN, signed zero) and strings (hashed) need the verifier.
func repExact(c Column) bool {
	k := c.Kind()
	return k != KFlt && k != KStr
}

// fltKeyRep is the key rep of a float: its bit pattern, with -0 and +0
// folded into one key.
func fltKeyRep(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	return math.Float64bits(v)
}

// fillKeyReps is the one place a column row becomes a key rep: it sets
// rep[k] to the key rep of row lo+k of c, for every k of rep, as a direct
// loop over the layout's backing without a dynamic call per row. The key-rep
// vectors (NewKeyRepP), the hash build and the probe kernels (one block at a
// time) all read rows through it.
func fillKeyReps(c Column, rep []uint64, lo int) {
	hi := lo + len(rep)
	switch cc := c.(type) {
	case *VoidCol:
		for k := range rep {
			rep[k] = uint64(cc.Seq) + uint64(lo+k)
		}
	case *OIDCol:
		fillFixedReps(cc.V[lo:hi], rep)
	case *IntCol:
		fillFixedReps(cc.V[lo:hi], rep)
	case *DateCol:
		fillFixedReps(cc.V[lo:hi], rep)
	case *ChrCol:
		fillFixedReps(cc.V[lo:hi], rep)
	case *FltCol:
		for k, x := range cc.V[lo:hi] {
			rep[k] = fltKeyRep(x)
		}
	case *StrCol:
		for k := range rep {
			rep[k] = hashString(cc.At(lo + k))
		}
	default: // *BitCol, never a hot key
		for k, x := range c.(*BitCol).V[lo:hi] {
			rep[k] = 0
			if x {
				rep[k] = 1
			}
		}
	}
}

// fixedElem are the element types whose key rep is the plain uint64
// conversion.
type fixedElem interface {
	~uint8 | ~uint32 | ~int32 | ~int64
}

func fillFixedReps[E fixedElem](v []E, rep []uint64) {
	for k, x := range v {
		rep[k] = uint64(x)
	}
}

// KeyEqual implements KeyEq on a single column under map-key semantics.
func (k *KeyRep) KeyEqual(a, b int32) bool {
	if k.Exact {
		return k.Rep[a] == k.Rep[b]
	}
	// The inexact kinds are exactly floats and strings (repExact).
	if c, ok := k.col.(*FltCol); ok {
		return c.V[a] == c.V[b]
	}
	c := k.col.(*StrCol)
	return c.At(int(a)) == c.At(int(b))
}

// Verifier returns k as a KeyEq, or nil when rep equality is conclusive.
func (k *KeyRep) Verifier() KeyEq {
	if k.Exact {
		return nil
	}
	return k
}

// KeysEq verifies composite keys (group refinement, BUN dedup, composite-key
// join) row against row, key by key.
type KeysEq []*KeyRep

// KeyEqual implements KeyEq.
func (e *KeysEq) KeyEqual(a, b int32) bool {
	for _, k := range *e {
		if !k.KeyEqual(a, b) {
			return false
		}
	}
	return true
}

// normKind folds void into oid: void entries materialize as oids, so the two
// kinds share one key space.
func normKind(k Kind) Kind {
	if k == KVoid {
		return KOID
	}
	return k
}

// crossEq returns a verifier of value equality between row i of a and row j
// of b, two columns of the same inexact kind (float or string).
func crossEq(a, b Column) func(i, j int32) bool {
	if ca, ok := a.(*FltCol); ok {
		cb := b.(*FltCol)
		return func(i, j int32) bool { return ca.V[i] == cb.V[j] }
	}
	ca, cb := a.(*StrCol), b.(*StrCol)
	return func(i, j int32) bool { return ca.At(int(i)) == cb.At(int(j)) }
}

// ---------------------------------------------------------------------------
// Grouper: incremental distinct-key slot assignment (group, unique,
// aggregation, union).

// Grouper assigns dense slot ids to distinct key reps via an open hash table
// with bucket+link chaining over the slots (contract in the file header).
type Grouper struct {
	eq     KeyEq   // settles rep collisions; nil when rep equality is conclusive
	bucket []int32 // slot chain heads per hash bucket, -1 empty
	mask   uint32
	rep    []uint64 // rep per slot
	rows   []int32  // first-occurrence row per slot
	link   []int32  // next slot in bucket chain
}

// grouperMinBuckets is the initial bucket count: it covers the typical
// grouping (a few to a few hundred groups) without growing, in 5 KB.
const grouperMinBuckets = 256

// NewGrouper returns an empty Grouper whose rep collisions eq settles; eq
// must be non-nil whenever rep equality does not imply key equality (inexact
// reps and all composite Mix keys).
func NewGrouper(eq KeyEq) *Grouper {
	g := &Grouper{eq: eq}
	g.rehash(grouperMinBuckets)
	return g
}

// rehash resizes the bucket array to sz (a power of two), makes room for as
// many slots — so the per-slot arrays grow in the same few steps, not by
// append's — and re-links every slot from its stored rep. Chain order is
// unobservable: a key occupies one slot, found wherever it sits in its chain.
func (g *Grouper) rehash(sz int) {
	g.bucket = make([]int32, sz)
	g.mask = uint32(sz - 1)
	g.rep = slices.Grow(g.rep, sz-len(g.rep))
	g.rows = slices.Grow(g.rows, sz-len(g.rows))
	g.link = slices.Grow(g.link, sz-len(g.link))
	for i := range g.bucket {
		g.bucket[i] = -1
	}
	for s, rep := range g.rep {
		h := fibHash(rep) & g.mask
		g.link[s] = g.bucket[h]
		g.bucket[h] = int32(s)
	}
}

// Len reports the number of slots handed out.
func (g *Grouper) Len() int { return len(g.rows) }

// Rows returns the first-occurrence row of every slot, in slot order.
func (g *Grouper) Rows() []int32 { return g.rows }

// Reserve sizes the table for n slots at once, for a caller that expects
// about n distinct keys (a composite-key join's build side); past n it still
// doubles.
func (g *Grouper) Reserve(n int) {
	if sz := nextPow2(n); sz > len(g.bucket) {
		g.rehash(sz)
	}
}

// Find returns the slot of the key with representation rep occurring at row,
// or -1 when there is none; it never creates one. (Slot repeats the probe
// loop: it runs per row of every grouping, where a call would show.)
func (g *Grouper) Find(rep uint64, row int32) int32 {
	for s := g.bucket[fibHash(rep)&g.mask]; s >= 0; s = g.link[s] {
		if g.rep[s] == rep && (g.eq == nil || g.eq.KeyEqual(g.rows[s], row)) {
			return s
		}
	}
	return -1
}

// Slot returns the slot of the key with representation rep occurring at row,
// creating it if new (second result).
func (g *Grouper) Slot(rep uint64, row int32) (int32, bool) {
	h := fibHash(rep) & g.mask
	for s := g.bucket[h]; s >= 0; s = g.link[s] {
		if g.rep[s] == rep && (g.eq == nil || g.eq.KeyEqual(g.rows[s], row)) {
			return s, false
		}
	}
	if len(g.rows) >= len(g.bucket) {
		g.rehash(2 * len(g.bucket))
		h = fibHash(rep) & g.mask
	}
	s := int32(len(g.rows))
	g.rep = append(g.rep, rep)
	g.rows = append(g.rows, row)
	g.link = append(g.link, g.bucket[h])
	g.bucket[h] = s
	return s, true
}

// ---------------------------------------------------------------------------
// Merge-join kernel: unboxed two-cursor merge of a sorted tail against a
// sorted head, one generic instantiation per ordered element type. Columns
// of different kinds (void and oid aside) have no typed path: as in the hash
// kernels, an int never equals a float.

// Ordered are the fixed-width element types with a native order: all of
// Fixed but bool.
type Ordered interface {
	OID | int64 | float64 | byte | int32
}

// mergeTyped is the merge cursor. In semi mode it appends each matching l
// position once and leaves rpos alone: r's cursor stays on the matched run.
func mergeTyped[E Ordered | string](lt, rh []E, semi bool, lpos, rpos []int32) ([]int32, []int32) {
	i, j := 0, 0
	nl, nr := len(lt), len(rh)
	for i < nl && j < nr {
		x := lt[i]
		switch {
		case x < rh[j]:
			i++
		case x > rh[j]:
			j++
		case semi:
			lpos = append(lpos, int32(i))
			i++
		default:
			for j2 := j; j2 < nr && rh[j2] == x; j2++ {
				lpos = append(lpos, int32(i))
				rpos = append(rpos, int32(j2))
			}
			i++
		}
	}
	return lpos, rpos
}

// mergeVoid merges the void column v, read as Seq+i and never materialized,
// against the ascending oids o: each o entry in v's range meets the one v
// position its offset names. vLeft says which side v is.
func mergeVoid(v *VoidCol, o []OID, vLeft, semi bool, lpos, rpos []int32) ([]int32, []int32) {
	lo, _ := slices.BinarySearch(o, v.Seq)
	hi, _ := slices.BinarySearch(o, v.Seq+OID(v.N))
	prev := int32(-1)
	for j := lo; j < hi; j++ {
		l, r := int32(o[j]-v.Seq), int32(j)
		if !vLeft {
			l, r = r, l
		}
		if !semi {
			rpos = append(rpos, r)
		} else if l == prev { // a run of equal o entries keeps its v position once
			continue
		}
		lpos, prev = append(lpos, l), l
	}
	return lpos, rpos
}

// mergeFixed runs the typed merge when rh has a's element type.
func mergeFixed[E Ordered](a *FixedCol[E], rh Column, semi bool, lpos, rpos []int32) ([]int32, []int32, bool) {
	b, ok := rh.(*FixedCol[E])
	if !ok {
		return lpos, rpos, false
	}
	lpos, rpos = mergeTyped(a.V, b.V, semi, lpos, rpos)
	return lpos, rpos, true
}

// MergeJoinPairs merges the (ascending) column lt against the (ascending)
// column rh, appending every matching position pair to lpos/rpos in left
// order — in semi mode only each matching lt position, to lpos. A void
// column merges as its oid sequence. It reports false when the column pair
// has no typed path, leaving the buffers untouched.
func MergeJoinPairs(lt, rh Column, semi bool, lpos, rpos []int32) ([]int32, []int32, bool) {
	lv, lVoid := lt.(*VoidCol)
	rv, rVoid := rh.(*VoidCol)
	if lVoid && rVoid { // the overlap of the two oid ranges
		for x := max(lv.Seq, rv.Seq); x < min(lv.Seq+OID(lv.N), rv.Seq+OID(rv.N)); x++ {
			lpos = append(lpos, int32(x-lv.Seq))
			if !semi {
				rpos = append(rpos, int32(x-rv.Seq))
			}
		}
		return lpos, rpos, true
	}
	if o, ok := rh.(*OIDCol); ok && lVoid {
		lpos, rpos = mergeVoid(lv, o.V, true, semi, lpos, rpos)
		return lpos, rpos, true
	}
	if o, ok := lt.(*OIDCol); ok && rVoid {
		lpos, rpos = mergeVoid(rv, o.V, false, semi, lpos, rpos)
		return lpos, rpos, true
	}
	switch a := lt.(type) {
	case *OIDCol:
		return mergeFixed(a, rh, semi, lpos, rpos)
	case *IntCol:
		return mergeFixed(a, rh, semi, lpos, rpos)
	case *FltCol:
		return mergeFixed(a, rh, semi, lpos, rpos)
	case *DateCol:
		return mergeFixed(a, rh, semi, lpos, rpos)
	case *ChrCol:
		return mergeFixed(a, rh, semi, lpos, rpos)
	case *StrCol:
		if b, ok := rh.(*StrCol); ok {
			lpos, rpos = mergeTyped(a.strings(), b.strings(), semi, lpos, rpos)
			return lpos, rpos, true
		}
	}
	return lpos, rpos, false
}
