package moa

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/bat"
	"repro/internal/mil"
)

// Struct is a composition of structure functions (Section 3.3): it describes
// how a structured MOA value is assembled out of the BATs it is decomposed
// over. The leaves name MIL variables, so the same machinery describes both
// stored class extents and query results (Fig. 6: the result of a translated
// query is "operands of another structure expression").
//
// The formal semantics:
//
//   - a head-unique BAT[oid,τ] represents an identified value set (IVS);
//   - TUPLE(S1,…,Sn) over mutually synchronous IVSs yields the IVS
//     {⟨id_i, ⟨v_i1,…,v_in⟩⟩ | ⟨id_i, v_ij⟩ ∈ S_j};
//   - OBJECT is identical to TUPLE, the ids being the object identifiers;
//   - SET(A, S) for A a BAT[oid,oid] yields
//     {⟨oid_i, {v_j}⟩ | ⟨oid_i, id_i⟩ ∈ A ∧ ⟨id_i, v_j⟩ ∈ S};
//   - SET(A) for A a BAT[oid,τ] is the optimized form for simple element
//     values: {⟨oid_i, {v_j}⟩ | ⟨oid_i, v_j⟩ ∈ A}.
type Struct interface {
	// Render prints the structure expression, e.g.
	// "SET(INDEX, TUPLE(YEAR, LOSS))".
	Render() string
}

// AtomFn is a leaf: the identified value set stored in the named BAT
// variable (head = identifier, tail = value).
type AtomFn struct{ Var string }

// Render implements Struct.
func (a AtomFn) Render() string { return a.Var }

// TupleFn composes mutually synchronous identified value sets into an IVS of
// tuples. Names carry the field names of the tuple type.
type TupleFn struct {
	Names  []string
	Fields []Struct
	// Object marks OBJECT (identical semantics to TUPLE; the ids are
	// object identifiers). Class names the class for display.
	Object bool
	Class  string
}

// Render implements Struct.
func (t TupleFn) Render() string {
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		parts[i] = f.Render()
	}
	fn := "TUPLE"
	if t.Object {
		fn = "OBJECT"
	}
	return fn + "(" + strings.Join(parts, ", ") + ")"
}

// SetFn applies the SET structure function. Index names the BAT[oid,oid]
// mapping set ids to element ids; an empty Index means the element ids
// themselves enumerate the set (the representation of a top-level result
// set, or the SET(A) optimized form when Elem is an AtomFn over the same
// BAT).
type SetFn struct {
	Index string
	Elem  Struct
}

// Render implements Struct.
func (s SetFn) Render() string {
	if s.Index == "" {
		return "SET(" + s.Elem.Render() + ")"
	}
	return "SET(" + s.Index + ", " + s.Elem.Render() + ")"
}

// SimpleSetFn is the optimized SET(A) form of Section 3.3, "for the case
// that the set element value is simple (i.e. a base type or an object
// reference)": per owner oid, the set of tail values of A.
type SimpleSetFn struct{ Index string }

// Render implements Struct.
func (s SimpleSetFn) Render() string { return "SET(" + s.Index + ")" }

// ViaFn composes an indirection BAT [id, baseid] with an IVS keyed by
// baseid: the result IVS maps id to the base element's value. It is how the
// translated generic join exposes its operands' elements under the fresh
// pair identities.
type ViaFn struct {
	Via  string
	Elem Struct
}

// Render implements Struct.
func (v ViaFn) Render() string { return "VIA(" + v.Via + ", " + v.Elem.Render() + ")" }

// --- materialization --------------------------------------------------------

// Val is a materialized MOA value: bat.Value for atoms, *TupleVal for
// tuples/objects, *SetVal for sets.
type Val interface{}

// TupleVal is a materialized tuple (or object).
type TupleVal struct {
	Names  []string
	Fields []Val
}

// SetVal is a materialized set of identified elements.
type SetVal struct {
	Elems []Elem
}

// Elem is one identified element of a set.
type Elem struct {
	ID bat.OID
	V  Val
}

// Materialize evaluates the structure expression against the environment,
// producing the structured value it denotes (env is any variable resolver —
// a flat mil.Env or a layered mil.Scope). The expression must be a SetFn
// (MOA queries and extents are sets): it is Compile, Bind and
// Bound.Materialize in one call.
func Materialize(env mil.EnvReader, s Struct) (*SetVal, error) {
	r, err := Compile(s)
	if err != nil {
		return nil, err
	}
	b, err := r.Bind(env)
	if err != nil {
		return nil, err
	}
	return b.Materialize(), nil
}

// Resolver is a structure expression compiled once per plan: its nodes in
// pre-order, each with the BAT it reads and its children. Bind runs it
// against one execution's BATs.
//
// A top-level SET denotes one set: each BUN of the index BAT contributes one
// element. This covers both forms the paper uses — a query result
// SET(INDEX, …) whose INDEX[void,oid] tail lists the element ids, and a
// class extent SET(Extent, …) whose extent[oid,void] heads are the ids
// (a void tail materializes the same dense sequence as the head). Without
// an index, the heads of the first BAT the element reads enumerate the ids
// (a set's owners once each). An element is dropped when a field does not
// resolve or a nested set is empty: the mapping cannot represent empty sets.
type Resolver struct {
	index string // the top-level index BAT; "" enumerates
	enum  int    // the node whose BAT enumerates; -1 for none
	prog  []node
}

type node struct {
	fn   Struct // AtomFn, TupleFn, SetFn with an index, SimpleSetFn or ViaFn
	v    string // the attribute, index or indirection BAT
	kids []int
}

// Compile compiles a structure expression, which must be a SetFn.
func Compile(s Struct) (*Resolver, error) {
	set, ok := s.(SetFn)
	if !ok {
		return nil, fmt.Errorf("moa: top-level structure must be SET, got %s", s.Render())
	}
	r := &Resolver{index: set.Index}
	if _, err := r.compile(set.Elem); err != nil {
		return nil, err
	}
	// in pre-order, a tuple's first field is the node after it
	for r.enum >= 0 && r.prog[r.enum].v == "" {
		if len(r.prog[r.enum].kids) == 0 {
			r.enum = -1 // a tuple of no fields enumerates nothing
		} else {
			r.enum++
		}
	}
	return r, nil
}

func (r *Resolver) compile(s Struct) (int, error) {
	var v string
	var kids []Struct
	switch x := s.(type) {
	case AtomFn:
		v = x.Var
	case TupleFn:
		kids = x.Fields
	case SetFn:
		if x.Index == "" {
			return r.compile(x.Elem) // the element ids enumerate the set
		}
		v, kids = x.Index, []Struct{x.Elem}
	case SimpleSetFn:
		v = x.Index
	case ViaFn:
		v, kids = x.Via, []Struct{x.Elem}
	default:
		return 0, fmt.Errorf("moa: unknown structure node %T", s)
	}
	k := len(r.prog)
	r.prog = append(r.prog, node{fn: s, v: v})
	for _, kid := range kids {
		c, err := r.compile(kid)
		if err != nil {
			return 0, err
		}
		r.prog[k].kids = append(r.prog[k].kids, c)
	}
	return k, nil
}

// Bound is a Resolver bound to one execution's BATs: each element's fields
// as positions into the typed columns that hold them. Nothing is boxed
// until Materialize.
type Bound struct {
	r     *Resolver
	ids   []bat.OID // the ids the index lists
	elems []int32   // those that resolve, as positions in ids
	at    []binding // per node
}

// binding is a node bound to the ids it resolves; entry i is the i-th's.
type binding struct {
	col bat.Column // the values pos indexes: the tail, or its datavector's
	pos []int32    // AtomFn, ViaFn: id i's position in col; sets: member j's
	off []int32    // sets: id i's members are [off[i], off[i+1])
	ids []bat.OID  // SetFn: the member ids
	ok  []bool     // SetFn: whether each member resolves
}

// Bind resolves the program against env, one pass per node: a leaf turns
// the ids into positions by dense-extent arithmetic (its datavector), the
// void offset or the head hash; a nested set groups its index by owner.
func (r *Resolver) Bind(env mil.EnvReader) (*Bound, error) {
	b := &Bound{r: r, at: make([]binding, len(r.prog))}
	var x *bat.BAT
	var err error
	if r.index != "" {
		if x, err = lookup(env, r.index); err == nil {
			b.ids, err = oidsOf(x.T, r.index)
		}
	} else if r.enum >= 0 {
		n := r.prog[r.enum]
		if x, err = lookup(env, n.v); err == nil {
			switch n.fn.(type) {
			case AtomFn, ViaFn:
				b.ids, err = oidsOf(x.H, n.v)
			default: // a set: its owners, once each
				var g *heads
				if g, err = groupHeads(x, n.v); err == nil {
					b.ids = g.owners
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	ok := make([]bool, len(b.ids))
	for i := range ok {
		ok[i] = true
	}
	if err := b.bind(env, 0, b.ids, ok); err != nil {
		return nil, err
	}
	for i, in := range ok {
		if in {
			b.elems = append(b.elems, int32(i))
		}
	}
	return b, nil
}

// bind binds node k to ids, clearing ok[i] when id i does not resolve.
func (b *Bound) bind(env mil.EnvReader, k int, ids []bat.OID, ok []bool) error {
	n, at := &b.r.prog[k], &b.at[k]
	if _, tuple := n.fn.(TupleFn); tuple {
		for _, c := range n.kids {
			if err := b.bind(env, c, ids, ok); err != nil {
				return err
			}
		}
		return nil
	}
	x, err := lookup(env, n.v)
	if err != nil {
		return err
	}
	var tail []bat.OID
	switch n.fn.(type) {
	case AtomFn, ViaFn:
		at.col, at.pos = x.T, make([]int32, len(ids))
		if dv := x.Datavector(); dv != nil {
			// a tail-ordered attribute BAT: the datavector resolves an oid
			// to its vector position without building any hash
			at.col = dv.Vector
			for i, id := range ids {
				p, hit := dv.Probe(id)
				at.pos[i], ok[i] = int32(p), ok[i] && hit
			}
		} else {
			headPositions(x, ids, ok, at.pos)
		}
		if len(n.kids) == 0 {
			return nil
		}
		// an indirection: the tails are the ids its element resolves
		if tail, err = oidsOf(at.col, n.v); err != nil {
			return err
		}
		base := make([]bat.OID, len(ids))
		for i, p := range at.pos {
			if ok[i] {
				base[i] = tail[p]
			}
		}
		return b.bind(env, n.kids[0], base, ok)
	}
	g, err := groupHeads(x, n.v)
	if err != nil {
		return err
	}
	at.col = x.T
	at.off, at.pos = g.members(ids, ok)
	if len(n.kids) == 0 {
		return nil // a SimpleSetFn: its members are the index tails
	}
	if tail, err = oidsOf(x.T, n.v); err != nil {
		return err
	}
	at.ids, at.ok = make([]bat.OID, len(at.pos)), make([]bool, len(at.pos))
	for j, r := range at.pos {
		at.ids[j], at.ok[j] = tail[r], true
	}
	if err := b.bind(env, n.kids[0], at.ids, at.ok); err != nil {
		return err
	}
	for i := range ids {
		ok[i] = ok[i] && slices.Contains(at.ok[at.off[i]:at.off[i+1]], true)
	}
	return nil
}

func lookup(env mil.EnvReader, name string) (*bat.BAT, error) {
	x, ok := env.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("moa: structure references undefined BAT %q", name)
	}
	return x, nil
}

// oidsOf reads an identifier column as oids.
func oidsOf(c bat.Column, name string) ([]bat.OID, error) {
	switch c := c.(type) {
	case *bat.VoidCol:
		ids := make([]bat.OID, c.N)
		for i := range ids {
			ids[i] = c.Seq + bat.OID(i)
		}
		return ids, nil
	case *bat.OIDCol:
		return c.V, nil
	}
	return nil, fmt.Errorf("moa: structure BAT %q holds %s identifiers, not oids", name, c.Kind())
}

// headPositions sets pos[i] to the first position of ids[i] in x's head, by
// the void offset or through the head hash, and clears ok[i] when it has
// none. Ids already cleared are skipped: no hash is built for them alone.
func headPositions(x *bat.BAT, ids []bat.OID, ok []bool, pos []int32) {
	v, void := x.H.(*bat.VoidCol)
	var h *bat.HashIndex
	for i, id := range ids {
		switch {
		case !ok[i]:
		case void:
			j := int64(id) - int64(v.Seq)
			pos[i], ok[i] = int32(j), j >= 0 && j < int64(v.N)
		default:
			if h == nil {
				h = x.HeadHash()
			}
			pos[i], ok[i] = h.Lookup1(id)
		}
	}
}

// heads is an index BAT's rows grouped by head oid: group g's rows are
// rows[off[g]:off[g+1]], ascending, and owners[g] is its oid.
type heads struct {
	off, rows []int32
	owners    []bat.OID // in first-occurrence order
	group     map[bat.OID]int32
}

// groupHeads groups idx's rows by head oid: one pass, then a counting sort.
func groupHeads(idx *bat.BAT, name string) (*heads, error) {
	own, err := oidsOf(idx.H, name)
	if err != nil {
		return nil, err
	}
	g := &heads{off: []int32{0}, group: make(map[bat.OID]int32)}
	slot := make([]int32, len(own))
	for r, o := range own {
		s, seen := g.group[o]
		if !seen {
			s = int32(len(g.owners))
			g.group[o] = s
			g.owners, g.off = append(g.owners, o), append(g.off, 0)
		}
		slot[r] = s
		g.off[s+1]++
	}
	for s := range g.owners {
		g.off[s+1] += g.off[s]
	}
	next := slices.Clone(g.off)
	g.rows = make([]int32, len(own))
	for r, s := range slot {
		g.rows[next[s]] = int32(r)
		next[s]++
	}
	return g, nil
}

// members lays out the index rows each of ids owns, clearing ok[i] when id
// i owns none: id i's are rows[off[i]:off[i+1]].
func (g *heads) members(ids []bat.OID, ok []bool) (off, rows []int32) {
	off = make([]int32, len(ids)+1)
	for i, id := range ids {
		if s, has := g.group[id]; ok[i] && has {
			rows = append(rows, g.rows[g.off[s]:g.off[s+1]]...)
		}
		off[i+1] = int32(len(rows))
		ok[i] = ok[i] && off[i] < off[i+1]
	}
	return off, rows
}

// Len reports the number of elements.
func (b *Bound) Len() int { return len(b.elems) }

// AppendElem appends the canonical rendering of element i, the bytes
// RenderVal prints for its materialized value: atoms and tuples render
// straight from the columns, a nested set from its materialized members.
func (b *Bound) AppendElem(buf []byte, i int) []byte { return b.appendAt(buf, 0, b.elems[i]) }

func (b *Bound) appendAt(buf []byte, k int, i int32) []byte {
	n, at := &b.r.prog[k], &b.at[k]
	switch fn := n.fn.(type) {
	case AtomFn:
		return bat.AppendValue(buf, at.col.Get(int(at.pos[i])))
	case TupleFn:
		buf = append(buf, '<')
		for j, c := range n.kids {
			buf = b.appendAt(appendFieldName(buf, fn.Names, j), c, i)
		}
		return append(buf, '>')
	case ViaFn:
		return b.appendAt(buf, n.kids[0], i)
	}
	return appendVal(buf, b.val(k, i))
}

// Materialize builds the *SetVal the bound structure denotes, boxing each
// leaf value.
func (b *Bound) Materialize() *SetVal {
	out := &SetVal{}
	if len(b.elems) > 0 {
		out.Elems = make([]Elem, len(b.elems))
	}
	for n, i := range b.elems {
		out.Elems[n] = Elem{ID: b.ids[i], V: b.val(0, i)}
	}
	return out
}

func (b *Bound) val(k int, i int32) Val {
	n, at := &b.r.prog[k], &b.at[k]
	switch fn := n.fn.(type) {
	case AtomFn:
		return at.col.Get(int(at.pos[i]))
	case TupleFn:
		tv := &TupleVal{Names: fn.Names, Fields: make([]Val, len(n.kids))}
		for j, c := range n.kids {
			tv.Fields[j] = b.val(c, i)
		}
		return tv
	case ViaFn:
		return b.val(n.kids[0], i)
	}
	out := &SetVal{}
	for j := at.off[i]; j < at.off[i+1]; j++ {
		if len(n.kids) == 0 { // a SimpleSetFn
			v := at.col.Get(int(at.pos[j]))
			out.Elems = append(out.Elems, Elem{ID: bat.OID(v.I), V: v})
		} else if at.ok[j] {
			out.Elems = append(out.Elems, Elem{ID: at.ids[j], V: b.val(n.kids[0], j)})
		}
	}
	return out
}

// --- canonical rendering (for result display and answer comparison) --------

// RenderVal prints a materialized value canonically: floats rounded to 4
// decimals, sets sorted by their rendered elements, so that two semantically
// equal results render identically regardless of physical order.
func RenderVal(v Val) string {
	bp := renderBufs.Get().(*[]byte)
	*bp = appendVal((*bp)[:0], v)
	out := string(*bp)
	renderBufs.Put(bp)
	return out
}

var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// RenderOrdered prints a set keeping element order (for sorted query
// results such as top-N lists).
func RenderOrdered(s *SetVal) string {
	buf := []byte{'['}
	for i, e := range s.Elems {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendVal(buf, e.V)
	}
	return string(append(buf, ']'))
}

// appendVal appends RenderVal's rendering of v; the atoms render through
// bat.AppendValue.
func appendVal(buf []byte, v Val) []byte {
	switch x := v.(type) {
	case bat.Value:
		return bat.AppendValue(buf, x)
	case *TupleVal:
		buf = append(buf, '<')
		for i, f := range x.Fields {
			buf = appendVal(appendFieldName(buf, x.Names, i), f)
		}
		return append(buf, '>')
	case *SetVal:
		parts := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			parts[i] = RenderVal(e.V)
		}
		sort.Strings(parts)
		return append(append(append(buf, '{'), strings.Join(parts, ", ")...), '}')
	case nil:
		return append(buf, "nil"...)
	}
	return fmt.Appendf(buf, "%v", v)
}

// appendFieldName appends the separator before tuple field i and the
// field's name, when it has one.
func appendFieldName(buf []byte, names []string, i int) []byte {
	if i > 0 {
		buf = append(buf, ", "...)
	}
	if i < len(names) && names[i] != "" {
		buf = append(append(buf, names[i]...), ": "...)
	}
	return buf
}
