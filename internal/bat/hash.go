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
// Construction is one counting sort by bucket: a histogram pass and a
// scatter pass, each reading the column a block of key reps at a time
// through fillKeyReps, the one place a row becomes a key rep. Probes read
// their rows the same way.
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

// BuildHashIndex constructs a hash index over col. stop, when non-nil, is
// the owning query's cancellation check: the build consults it once per
// block of rows and, when it reports true, panics with ErrAborted, so the
// accelerator slot publishes nothing.
func BuildHashIndex(col Column, stop func() bool) *HashIndex {
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
	var keys [probeBlock]uint64
	block := func(lo int) []uint64 {
		if stop != nil && stop() {
			panic(ErrAborted)
		}
		ks := keys[:min(n-lo, probeBlock)]
		fillKeyReps(col, ks, lo)
		return ks
	}
	counts := make([]int32, sz)
	for lo := 0; lo < n; lo += probeBlock {
		for _, x := range block(lo) {
			counts[fibHash(x)&h.mask]++
		}
	}
	cur := int32(0)
	for b, c := range counts {
		h.bucketOff[b] = cur
		counts[b] = cur // becomes the bucket's write cursor
		cur += c
	}
	h.bucketOff[sz] = cur
	for lo := 0; lo < n; lo += probeBlock {
		for t, x := range block(lo) {
			b := fibHash(x) & h.mask
			h.ents[counts[b]] = hashEnt{rep: x, pos: int32(lo + t)}
			counts[b]++
		}
	}
	return h
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

// bucketRange returns the clustered entry range holding key rep x.
func (h *HashIndex) bucketRange(x uint64) (int32, int32) {
	b := fibHash(x) & h.mask
	return h.bucketOff[b], h.bucketOff[b+1]
}

// Lookup1 returns the first (lowest) position at which oid x occurs,
// without allocating; ok is false when x does not occur, or when the indexed
// column does not hold oids. It is the probe for callers that resolve one id
// at a time (the structure-function resolvers).
func (h *HashIndex) Lookup1(x OID) (int32, bool) {
	if normKind(h.col.Kind()) != KOID {
		return 0, false
	}
	if h.dense {
		i := int64(x) - int64(h.seq)
		if i < 0 || i >= int64(h.n) {
			return 0, false
		}
		return int32(i), true
	}
	s, e := h.bucketRange(uint64(x))
	for k := s; k < e; k++ {
		if h.ents[k].rep == uint64(x) {
			return h.ents[k].pos, true
		}
	}
	return 0, false
}

// Probe is a prepared probe column: the column itself, whose key reps are
// computed a block at a time as the kernels load it (no per-probe rep array
// is materialized), and, for float and string probes, a verifier of
// probe-row against indexed-row equality. Probes are read-only and safe to
// share across parallel range workers.
type Probe struct {
	col Column
	eq  func(pi, bi int32) bool // nil when rep equality is conclusive
}

// NewProbe prepares probe for probing into h. It reports false when the
// probe column's kind cannot occur in the indexed column: under map-key
// semantics no row of such a probe ever matches, so the caller answers
// without probing.
func (h *HashIndex) NewProbe(probe Column) (Probe, bool) {
	if normKind(probe.Kind()) != normKind(h.col.Kind()) {
		return Probe{}, false
	}
	p := Probe{col: probe}
	if !repExact(probe) { // the kinds agree, so the index is inexact too
		p.eq = crossEq(probe, h.col)
	}
	return p, true
}

// probeBlock is the software-pipelining batch of the probe kernels: a block
// of rows is loaded (its key reps), its bucket ranges are resolved
// (independent loads the CPU overlaps), then the entries are walked. On
// out-of-cache indexes this turns one dependent miss chain per probe into
// batches of parallel misses, for every probe kind. The build reads its
// column in blocks of the same size.
const probeBlock = 256

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
	if v, ok := p.col.(*VoidCol); ok {
		return h.probeDenseVoid(v, lo, hi, true, true, lpos, rpos)
	}
	seq, hn := uint64(h.seq), uint64(h.n)
	for i, x := range p.col.(*OIDCol).V[lo:hi] {
		if j := uint64(x) - seq; j < hn {
			lpos = append(lpos, int32(lo+i))
			rpos = append(rpos, int32(j))
		}
	}
	return lpos, rpos
}

func (h *HashIndex) filterDense(p Probe, lo, hi int, want bool, out []int32) []int32 {
	if v, ok := p.col.(*VoidCol); ok {
		out, _ = h.probeDenseVoid(v, lo, hi, want, false, out, nil)
		return out
	}
	seq, hn := uint64(h.seq), uint64(h.n)
	for i, x := range p.col.(*OIDCol).V[lo:hi] {
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
		ks := keys[:min(hi-k, probeBlock)]
		fillKeyReps(p.col, ks, k)
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
		ks := keys[:min(hi-k, probeBlock)]
		fillKeyReps(p.col, ks, k)
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
// s.OnBuild and stopped, publishing nothing, when s.Stop fires.
func (b *BAT) HeadHashSched(s Sched) *HashIndex {
	return b.hashH.getOrBuild(func() *HashIndex { return BuildHashIndex(b.H, s.Stop) }, s.OnBuild)
}

// HasHeadHash reports whether a head hash accelerator is already present.
func (b *BAT) HasHeadHash() bool { return b.hashH.load() != nil }
