package bat

import "sync"

// HashIndex is a persistent hash-table search accelerator on one column
// (Fig. 2 shows such an accelerator heap attached to a BAT). The layout is
// bucket-clustered: ents holds all (key rep, position) entries sorted by
// (bucket, position) and bucketOff[b] .. bucketOff[b+1] delimits bucket b's
// entries. Walking a bucket is therefore a short sequential scan over one
// contiguous entry span instead of a pointer chase, and it yields positions
// in ascending order — the same observable order the classic back-to-front
// bucket+link chains produced.
//
// Construction is a counting sort by bucket. Over a bucket array beyond the
// caches it runs radix-partitioned (see partition.go): rows are scattered by
// the top bits of their bucket into P contiguous bucket ranges, and each
// range is counted and scattered on its own — touching only a cache-sized
// slice of the table. The partitioned build is bit-identical to the
// unpartitioned one by construction: bucket entries are ascending either
// way.
//
// Dense (void) columns need no arrays at all: the position of an oid is
// arithmetic.
type HashIndex struct {
	col   Column
	exact bool // rep equality ⇔ value equality on the indexed column

	// dense accelerator (void columns)
	dense bool
	seq   OID
	n     int

	// bucket-clustered accelerator
	bucketOff []int32   // len mask+2: entry range per bucket
	ents      []hashEnt // (key rep, position) entries clustered by bucket
	mask      uint32

	card     int       // distinct keys: set at build for dense, lazily otherwise
	cardOnce sync.Once // synchronizes the lazy computation across sessions
}

// hashEnt is one clustered accelerator entry. Rep and position share a
// cache line, so probe hits and build scatters touch one random line, not
// two. Within a bucket entries are position-ascending.
type hashEnt struct {
	rep uint64
	pos int32
}

// radixSoloMinBuckets is the bucket-array size past which a single-threaded
// build partitions too: below it the table is cache-resident and the scatter
// pass would be pure overhead, above it confining each counting sort to a
// cache-sized bucket span wins (measured crossover ≈1M buckets).
const radixSoloMinBuckets = 1 << 20

// buildPartitions picks the radix fan-out for a build over sz buckets: one
// partition while the table fits the caches, otherwise ≈512 KB of bucket
// offsets per partition, at most 256.
func buildPartitions(sz int) int {
	if sz < radixSoloMinBuckets {
		return 1
	}
	return min(sz>>17, 256)
}

// BuildHashIndex constructs a hash index over col, radix-partitioned when
// the bucket array outgrows the caches. Both layouts yield the identical
// index.
func BuildHashIndex(col Column) *HashIndex {
	if v, ok := col.(*VoidCol); ok {
		return &HashIndex{col: col, dense: true, seq: v.Seq, n: v.N, card: v.N}
	}
	// Run-time property detection (Section 5.1): an oid column that stores a
	// dense ascending sequence — common for base-extent heads even when no
	// density property survived the plan — gets the arithmetic accelerator,
	// no table at all. The detection pass aborts at the first violation, so
	// it costs almost nothing on non-dense columns.
	if c, ok := col.(*OIDCol); ok {
		if seq, dense := PositionRun(c.V); dense {
			return &HashIndex{col: col, dense: true, seq: OID(seq), n: len(c.V), card: len(c.V)}
		}
	}
	n := col.Len()
	sz := nextPow2(max(n, 1))
	h := &HashIndex{
		col:       col,
		exact:     repExact(col),
		bucketOff: make([]int32, sz+1),
		ents:      make([]hashEnt, n),
		mask:      uint32(sz - 1),
		n:         n,
	}
	p := buildPartitions(sz)
	if p <= 1 {
		// Unpartitioned counting sort, with the key reps computed inline
		// from the typed backing slice for the fixed-width kinds — no rep
		// vector is ever materialized.
		switch c := col.(type) {
		case *OIDCol:
			buildClusteredFixed(h, c.V)
		case *IntCol:
			buildClusteredFixed(h, c.V)
		case *DateCol:
			buildClusteredFixed(h, c.V)
		case *ChrCol:
			buildClusteredFixed(h, c.V)
		default:
			h.buildPartition(scattered{off: []int32{0, int32(n)}, reps: NewKeyRep(col).Rep},
				0, 0, make([]int32, sz))
		}
		h.bucketOff[sz] = int32(n)
		return h
	}
	sc := scatterByHash(NewKeyRep(col).Rep, p, h.mask, log2(sz)-log2(p))
	nb := sz >> log2(p) // buckets per partition
	counts := make([]int32, nb)
	for pi := 0; pi < p; pi++ {
		h.buildPartition(sc, pi, int32(pi*nb), counts)
		clear(counts)
	}
	h.bucketOff[sz] = int32(n)
	return h
}

// buildClusteredFixed is the unpartitioned counting sort for fixed-width
// columns: one histogram pass and one scatter pass, both converting elements
// to key reps on the fly (the conversion matches NewKeyRep bit for bit).
// Like the probe loops, both passes resolve a block of buckets up front so
// the random accesses of a block overlap instead of serializing.
func buildClusteredFixed[E fixedElem](h *HashIndex, v []E) {
	counts := make([]int32, h.mask+1)
	var bbuf [probeBlock]int32
	n := len(v)
	for base := 0; base < n; base += probeBlock {
		m := n - base
		if m > probeBlock {
			m = probeBlock
		}
		for t := 0; t < m; t++ {
			bbuf[t] = int32(fibHash(uint64(v[base+t])) & h.mask)
		}
		for t := 0; t < m; t++ {
			counts[bbuf[t]]++
		}
	}
	cur := int32(0)
	for j := range counts {
		h.bucketOff[j] = cur
		cur += counts[j]
		counts[j] = h.bucketOff[j]
	}
	for base := 0; base < n; base += probeBlock {
		m := n - base
		if m > probeBlock {
			m = probeBlock
		}
		for t := 0; t < m; t++ {
			bbuf[t] = int32(fibHash(uint64(v[base+t])) & h.mask)
		}
		for t := 0; t < m; t++ {
			b := bbuf[t]
			c := counts[b]
			h.ents[c] = hashEnt{rep: uint64(v[base+t]), pos: int32(base + t)}
			counts[b] = c + 1
		}
	}
}

// buildPartition counting-sorts partition pi's rows into the bucket range
// starting at bucket bLo, in row order. counts must be zeroed scratch, one
// entry per bucket of the range. Rows nil means the rows are the positions
// themselves (the unpartitioned build).
func (h *HashIndex) buildPartition(sc scattered, pi int, bLo int32, counts []int32) {
	lo, hi := sc.off[pi], sc.off[pi+1]
	reps := sc.reps
	for k := lo; k < hi; k++ {
		counts[int32(fibHash(reps[k])&h.mask)-bLo]++
	}
	cur := lo
	for j := range counts {
		h.bucketOff[bLo+int32(j)] = cur
		cur += counts[j]
		counts[j] = h.bucketOff[bLo+int32(j)] // becomes the bucket's write cursor
	}
	for k := lo; k < hi; k++ {
		x := reps[k]
		b := int32(fibHash(x)&h.mask) - bLo
		row := k
		if sc.rows != nil {
			row = sc.rows[k]
		}
		h.ents[counts[b]] = hashEnt{rep: x, pos: row}
		counts[b]++
	}
}

// computeCard counts the distinct keys of a clustered index: within each
// bucket, an entry is a duplicate when an earlier entry holds an equal key.
// Scanning earlier entries nearest-first settles all-duplicate columns in
// O(1) per entry, like the old chain walk did. It runs lazily on the first
// Card() call — the frequent build sides (unique heads) never ask.
func (h *HashIndex) computeCard() int {
	card := 0
	eq := KeyRep{col: h.col} // settles inexact rep matches between indexed rows
	for b := 0; b <= int(h.mask); b++ {
		s, e := h.bucketOff[b], h.bucketOff[b+1]
		for k := s; k < e; k++ {
			dup := false
			for k2 := k - 1; k2 >= s; k2-- {
				if h.ents[k2].rep == h.ents[k].rep && (h.exact || eq.KeyEqual(h.ents[k2].pos, h.ents[k].pos)) {
					dup = true
					break
				}
			}
			if !dup {
				card++
			}
		}
	}
	return card
}

// Card reports the number of distinct values (computed on first use for
// clustered indexes, cached after). Shared indexes are probed by concurrent
// sessions, so the lazy computation runs under a Once: every caller sees
// the fully computed count.
func (h *HashIndex) Card() int {
	if !h.dense {
		h.cardOnce.Do(func() { h.card = h.computeCard() })
	}
	return h.card
}

// repOfValue condenses a boxed probe value into the indexed column's key
// space; ok is false when the kind cannot occur in the column (map-key
// semantics: a probe of a different kind never matches).
func (h *HashIndex) repOfValue(v Value) (uint64, bool) {
	if v.K != normKind(h.col.Kind()) {
		return 0, false
	}
	switch v.K {
	case KFlt:
		return fltKeyRep(v.F), true
	case KStr:
		return hashString(v.S), true
	}
	return uint64(v.I), true
}

// bucketRange returns the clustered entry range holding key rep x.
func (h *HashIndex) bucketRange(x uint64) (int32, int32) {
	b := fibHash(x) & h.mask
	return h.bucketOff[b], h.bucketOff[b+1]
}

// Lookup1 returns the first (lowest) position at which v occurs, without
// allocating; ok is false when v does not occur. It is the probe for
// callers that resolve one id at a time (the structure-function resolvers).
func (h *HashIndex) Lookup1(v Value) (int32, bool) {
	if h.dense {
		if v.K != KOID {
			return 0, false
		}
		i := v.I - int64(h.seq)
		if i < 0 || i >= int64(h.n) {
			return 0, false
		}
		return int32(i), true
	}
	x, ok := h.repOfValue(v)
	if !ok || h.n == 0 {
		return 0, false
	}
	s, e := h.bucketRange(x)
	for k := s; k < e; k++ {
		if h.ents[k].rep != x {
			continue
		}
		if !h.exact && !h.valueEqualAt(v, h.ents[k].pos) {
			continue
		}
		return h.ents[k].pos, true
	}
	return 0, false
}

// valueEqualAt settles an inexact rep match of boxed v against position j.
func (h *HashIndex) valueEqualAt(v Value, j int32) bool { return h.col.Get(int(j)) == v }

// Probe is a prepared probe column. For the exact fixed-width kinds the key
// reps are computed from the column's backing slice as each block is loaded
// — no per-probe rep array is materialized at all; float, string and bit
// probes carry a prepared rep vector plus (when needed) a verifier of
// probe-row against indexed-row equality. Probes are read-only and safe to
// share across parallel range workers.
type Probe struct {
	rep []uint64                // prepared key reps (float, string, bit)
	eq  func(pi, bi int32) bool // nil when rep equality is conclusive

	// inline key sources (at most one non-nil): rep[i] is computed from the
	// element exactly as NewKeyRep would, saving the O(n) materialization.
	void  *VoidCol
	oidV  []OID
	intV  []int64
	dateV []int32
	chrV  []byte
}

// NewProbe prepares probe for probing into h. It reports false when the
// probe column's kind cannot occur in the indexed column: under map-key
// semantics no row of such a probe ever matches, so the caller answers
// without probing.
func (h *HashIndex) NewProbe(probe Column) (Probe, bool) {
	if normKind(probe.Kind()) != normKind(h.col.Kind()) {
		return Probe{}, false
	}
	switch c := probe.(type) {
	case *VoidCol:
		return Probe{void: c}, true
	case *OIDCol:
		return Probe{oidV: c.V}, true
	case *IntCol:
		return Probe{intV: c.V}, true
	case *DateCol:
		return Probe{dateV: c.V}, true
	case *ChrCol:
		return Probe{chrV: c.V}, true
	}
	kr := NewKeyRep(probe)
	p := Probe{rep: kr.Rep}
	if !h.dense && !(kr.Exact && h.exact) {
		p.eq = crossEq(probe, h.col)
	}
	return p, true
}

// fixedElem are the element types whose key rep is the plain uint64
// conversion (matching NewKeyRep), and uint64 for a prepared rep itself.
type fixedElem interface {
	~uint8 | ~uint32 | ~int32 | ~int64 | uint64
}

// probeBlock is the software-pipelining batch of the probe kernels: a block
// of rows is loaded (its key reps), its bucket ranges are resolved
// (independent loads the CPU overlaps), then the entries are walked. On
// out-of-cache indexes this turns one dependent miss chain per probe into
// batches of parallel misses, for every probe kind.
const probeBlock = 256

// load is the bucket-walk kernels' only row-addressing step: it fills
// keys[t] with the key rep of row lo+t, for the m rows of a block, and
// returns them.
func (p *Probe) load(lo, m int, keys *[probeBlock]uint64) []uint64 {
	switch {
	case p.oidV != nil:
		loadFixed(p.oidV[lo:lo+m], keys)
	case p.intV != nil:
		loadFixed(p.intV[lo:lo+m], keys)
	case p.dateV != nil:
		loadFixed(p.dateV[lo:lo+m], keys)
	case p.chrV != nil:
		loadFixed(p.chrV[lo:lo+m], keys)
	case p.rep != nil:
		loadFixed(p.rep[lo:lo+m], keys)
	default: // void: row r holds Seq + r
		for t := range m {
			keys[t] = uint64(p.void.Seq) + uint64(lo+t)
		}
	}
	return keys[:m]
}

// loadFixed reads the key reps of a block from a fixed-width backing slice
// in one sequential pass.
func loadFixed[E fixedElem](v []E, keys *[probeBlock]uint64) {
	for t, x := range v {
		keys[t] = uint64(x)
	}
}

// resolve fills the clustered entry range of every key of a loaded block.
func (h *HashIndex) resolve(keys []uint64, sbuf, ebuf *[probeBlock]int32) {
	bo := h.bucketOff
	for t, x := range keys {
		b := fibHash(x) & h.mask
		sbuf[t] = bo[b]
		ebuf[t] = bo[b+1]
	}
}

// joinDense and filterDense are the kernels over a dense index. It is
// arithmetic on the key, so there is no block to load and no bucket to
// resolve: they read the probe window directly. Such probes are oid-kinded
// — an oid column or, rarely, a void one.
func (h *HashIndex) joinDense(p Probe, lo, hi int, lpos, rpos []int32) ([]int32, []int32) {
	seq, hn := uint64(h.seq), uint64(h.n)
	if p.void != nil {
		return h.probeDenseVoid(p.void, lo, hi, true, true, lpos, rpos)
	}
	for i, x := range p.oidV[lo:hi] {
		if j := uint64(x) - seq; j < hn {
			lpos = append(lpos, int32(lo+i))
			rpos = append(rpos, int32(j))
		}
	}
	return lpos, rpos
}

func (h *HashIndex) filterDense(p Probe, lo, hi int, want bool, out []int32) []int32 {
	seq, hn := uint64(h.seq), uint64(h.n)
	if p.void != nil {
		out, _ = h.probeDenseVoid(p.void, lo, hi, want, false, out, nil)
		return out
	}
	for i, x := range p.oidV[lo:hi] {
		if (uint64(x)-seq < hn) == want {
			out = append(out, int32(lo+i))
		}
	}
	return out
}

// probeDenseVoid is both dense kernels for a void probe, whose row r holds
// Seq + r: the rows whose key lies (want) or does not lie in the indexed
// range and, for a join, the positions matched.
func (h *HashIndex) probeDenseVoid(c *VoidCol, lo, hi int, want, join bool, lpos, rpos []int32) ([]int32, []int32) {
	d := uint64(c.Seq) - uint64(h.seq)
	for r := int32(lo); r < int32(hi); r++ {
		if j := uint64(r) + d; (j < uint64(h.n)) == want {
			lpos = append(lpos, r)
			if join {
				rpos = append(rpos, int32(j))
			}
		}
	}
	return lpos, rpos
}

// JoinVec probes the rows [lo, hi) and appends every (probe position,
// indexed position) match pair — the hash-join inner loop. Pairs follow
// probe order; per probe row, indexed positions ascend.
func (h *HashIndex) JoinVec(p Probe, lo, hi int, lpos, rpos []int32) ([]int32, []int32) {
	if h.dense {
		return h.joinDense(p, lo, hi, lpos, rpos)
	}
	var keys [probeBlock]uint64
	var sbuf, ebuf [probeBlock]int32
	ents, n0 := h.ents, len(lpos)
	for k := lo; k < hi; k += probeBlock {
		ks := p.load(k, min(hi-k, probeBlock), &keys)
		h.resolve(ks, &sbuf, &ebuf)
		for t, x := range ks {
			r := int32(k + t)
			for e := sbuf[t]; e < ebuf[t]; e++ {
				if ents[e].rep == x {
					lpos = append(lpos, r)
					rpos = append(rpos, ents[e].pos)
				}
			}
		}
	}
	if p.eq != nil {
		return verifyPairs(p.eq, n0, lpos, rpos)
	}
	return lpos, rpos
}

// verifyPairs settles inexact rep matches: of the candidate pairs appended
// from n0 on it keeps, in order, those whose values are equal. It runs as a
// pass of its own so the walk above stays free of calls (a call in that loop
// doubles its in-cache cost).
func verifyPairs(eq func(pi, bi int32) bool, n0 int, lpos, rpos []int32) ([]int32, []int32) {
	w := n0
	for i := n0; i < len(lpos); i++ {
		if eq(lpos[i], rpos[i]) {
			lpos[w], rpos[w] = lpos[i], rpos[i]
			w++
		}
	}
	return lpos[:w], rpos[:w]
}

// FilterVec probes the rows [lo, hi) and appends the probe positions
// having at least one match (want=true: semijoin, intersection) or none
// (want=false: difference), in probe order. A row is settled by its first
// match, so the cost is one bucket walk per row and nothing is allocated
// beyond out.
func (h *HashIndex) FilterVec(p Probe, lo, hi int, want bool, out []int32) []int32 {
	if h.dense {
		return h.filterDense(p, lo, hi, want, out)
	}
	var keys [probeBlock]uint64
	var sbuf, ebuf [probeBlock]int32
	ents, eq := h.ents, p.eq
	for k := lo; k < hi; k += probeBlock {
		ks := p.load(k, min(hi-k, probeBlock), &keys)
		h.resolve(ks, &sbuf, &ebuf)
		if eq == nil {
			for t, x := range ks {
				e, end := sbuf[t], ebuf[t]
				for e < end && ents[e].rep != x {
					e++
				}
				if (e < end) == want {
					out = append(out, int32(k+t))
				}
			}
			continue
		}
		// Inexact reps (float, string): the first match eq confirms settles
		// the row. A loop of its own, so the exact walk stays free of calls
		// (a call anywhere in that loop costs it half again in cache).
		for t, x := range ks {
			r, e, end := int32(k+t), sbuf[t], ebuf[t]
			for e < end && !(ents[e].rep == x && eq(r, ents[e].pos)) {
				e++
			}
			if (e < end) == want {
				out = append(out, r)
			}
		}
	}
	return out
}

// HeadHash returns (building and caching on first use) the hash accelerator
// on b's head column. Building an accelerator at run time is exactly what
// Monet's dynamic optimization does when a hash variant is selected.
// Construction is singleflight: concurrent sessions that need the same
// missing index coalesce onto one build (see accelSlot). A mirror swaps the
// slots, so the mirror of b finds b's head hash as its tail's.
func (b *BAT) HeadHash() *HashIndex { return b.HeadHashSched(Sched{Workers: 1}) }

// HeadHashSched is HeadHash with the first construction reported to
// s.OnBuild.
func (b *BAT) HeadHashSched(s Sched) *HashIndex {
	return b.hashH.getOrBuild(func() *HashIndex { return BuildHashIndex(b.H) }, s.OnBuild)
}

// HasHeadHash reports whether a head hash accelerator is already present.
func (b *BAT) HasHeadHash() bool { return b.hashH.load() != nil }
