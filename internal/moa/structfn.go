package moa

import (
	"fmt"
	"sort"
	"strings"

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
// (MOA queries and extents are sets).
//
// A top-level SET denotes one set: each BUN of the index BAT contributes one
// element. This covers both forms the paper uses — a query result
// SET(INDEX, …) whose INDEX[void,oid] tail lists the element ids, and a
// class extent SET(Extent, …) whose extent[oid,void] heads are the ids
// (a void tail materializes the same dense sequence as the head).
//
// Materialization is id-driven: only the elements the index lists are
// resolved, through (cached) head hashes on the leaf BATs, so projecting a
// few objects out of a large class does not scan every attribute BAT.
func Materialize(env mil.EnvReader, s Struct) (*SetVal, error) {
	set, ok := s.(SetFn)
	if !ok {
		return nil, fmt.Errorf("moa: top-level structure must be SET, got %s", s.Render())
	}
	res, err := buildResolver(env, set.Elem)
	if err != nil {
		return nil, err
	}
	out := &SetVal{}
	if set.Index == "" {
		for _, id := range res.enum() {
			if v, has := res.get(id); has {
				out.Elems = append(out.Elems, Elem{ID: bat.OID(id.I), V: v})
			}
		}
		return out, nil
	}
	idx, ok := env.Lookup(set.Index)
	if !ok {
		return nil, fmt.Errorf("moa: structure references undefined index BAT %q", set.Index)
	}
	for i := 0; i < idx.Len(); i++ {
		elemID := normID(idx.TailValue(i))
		v, has := res.get(elemID)
		if !has {
			continue
		}
		out.Elems = append(out.Elems, Elem{ID: bat.OID(elemID.I), V: v})
	}
	return out, nil
}

// resolver resolves element identifiers to materialized values lazily.
type resolver struct {
	get  func(id bat.Value) (Val, bool)
	enum func() []bat.Value
}

func buildResolver(env mil.EnvReader, s Struct) (*resolver, error) {
	switch x := s.(type) {
	case AtomFn:
		b, ok := env.Lookup(x.Var)
		if !ok {
			return nil, fmt.Errorf("moa: structure references undefined BAT %q", x.Var)
		}
		var get func(id bat.Value) (Val, bool)
		if dv := b.Datavector(); dv != nil {
			// tail-ordered attribute BAT: the datavector accelerator
			// resolves oid→value in O(1) (dense extent) without building
			// any hash.
			get = func(id bat.Value) (Val, bool) {
				pos, ok := dv.Probe(bat.OID(id.I))
				if !ok {
					return nil, false
				}
				return dv.Vector.Get(pos), true
			}
		} else if h, isVoid := b.H.(*bat.VoidCol); isVoid {
			get = func(id bat.Value) (Val, bool) {
				i := int(id.I) - int(h.Seq)
				if i < 0 || i >= h.N {
					return nil, false
				}
				return b.TailValue(i), true
			}
		} else {
			get = func(id bat.Value) (Val, bool) {
				pos, ok := b.HeadHash().Lookup1(normID(id))
				if !ok {
					return nil, false
				}
				return b.TailValue(int(pos)), true
			}
		}
		return &resolver{
			get: get,
			enum: func() []bat.Value {
				ids := make([]bat.Value, b.Len())
				for i := range ids {
					ids[i] = normID(b.HeadValue(i))
				}
				return ids
			},
		}, nil

	case TupleFn:
		fields := make([]*resolver, len(x.Fields))
		for i, f := range x.Fields {
			fr, err := buildResolver(env, f)
			if err != nil {
				return nil, err
			}
			fields[i] = fr
		}
		return &resolver{
			get: func(id bat.Value) (Val, bool) {
				tv := &TupleVal{Names: x.Names, Fields: make([]Val, len(fields))}
				for j, f := range fields {
					v, has := f.get(id)
					if !has {
						return nil, false // synchronicity violation; drop defensively
					}
					tv.Fields[j] = v
				}
				return tv, true
			},
			enum: func() []bat.Value {
				if len(fields) == 0 {
					return nil
				}
				return fields[0].enum()
			},
		}, nil

	case SetFn:
		elem, err := buildResolver(env, x.Elem)
		if err != nil {
			return nil, err
		}
		if x.Index == "" {
			return elem, nil
		}
		idx, ok := env.Lookup(x.Index)
		if !ok {
			return nil, fmt.Errorf("moa: structure references undefined index BAT %q", x.Index)
		}
		members, order := groupByHead(idx)
		return &resolver{
			get: func(id bat.Value) (Val, bool) {
				out := &SetVal{}
				for _, m := range members[normID(id)] {
					if v, has := elem.get(m); has {
						out.Elems = append(out.Elems, Elem{ID: bat.OID(m.I), V: v})
					}
				}
				if len(out.Elems) == 0 {
					return nil, false // the mapping cannot represent empty sets
				}
				return out, true
			},
			enum: func() []bat.Value { return order },
		}, nil

	case SimpleSetFn:
		idx, ok := env.Lookup(x.Index)
		if !ok {
			return nil, fmt.Errorf("moa: structure references undefined BAT %q", x.Index)
		}
		members, order := groupByHead(idx)
		return &resolver{
			get: func(id bat.Value) (Val, bool) {
				ms := members[normID(id)]
				if len(ms) == 0 {
					return nil, false
				}
				out := &SetVal{}
				for _, m := range ms {
					out.Elems = append(out.Elems, Elem{ID: bat.OID(m.I), V: m})
				}
				return out, true
			},
			enum: func() []bat.Value { return order },
		}, nil

	case ViaFn:
		via, ok := env.Lookup(x.Via)
		if !ok {
			return nil, fmt.Errorf("moa: structure references undefined BAT %q", x.Via)
		}
		elem, err := buildResolver(env, x.Elem)
		if err != nil {
			return nil, err
		}
		if h, isVoid := via.H.(*bat.VoidCol); isVoid {
			return &resolver{
				get: func(id bat.Value) (Val, bool) {
					i := int(id.I) - int(h.Seq)
					if i < 0 || i >= h.N {
						return nil, false
					}
					return elem.get(normID(via.TailValue(i)))
				},
				enum: func() []bat.Value {
					ids := make([]bat.Value, via.Len())
					for i := range ids {
						ids[i] = normID(via.HeadValue(i))
					}
					return ids
				},
			}, nil
		}
		return &resolver{
			get: func(id bat.Value) (Val, bool) {
				pos, ok := via.HeadHash().Lookup1(normID(id))
				if !ok {
					return nil, false
				}
				return elem.get(normID(via.TailValue(int(pos))))
			},
			enum: func() []bat.Value {
				ids := make([]bat.Value, via.Len())
				for i := range ids {
					ids[i] = normID(via.HeadValue(i))
				}
				return ids
			},
		}, nil
	}
	return nil, fmt.Errorf("moa: unknown structure node %T", s)
}

// groupByHead scans an index BAT once, grouping member ids (tails) per owner
// (head), preserving first-occurrence owner order.
func groupByHead(idx *bat.BAT) (map[bat.Value][]bat.Value, []bat.Value) {
	members := make(map[bat.Value][]bat.Value, 64)
	var order []bat.Value
	for i := 0; i < idx.Len(); i++ {
		owner := normID(idx.HeadValue(i))
		if _, seen := members[owner]; !seen {
			order = append(order, owner)
		}
		members[owner] = append(members[owner], normID(idx.TailValue(i)))
	}
	return members, order
}

// normID normalizes head identifiers (void heads materialize as oids).
func normID(v bat.Value) bat.Value {
	if v.K == bat.KVoid {
		return bat.O(bat.OID(v.I))
	}
	return v
}

// --- canonical rendering (for result display and answer comparison) --------

// RenderVal prints a materialized value canonically: floats rounded to 4
// decimals, sets sorted by their rendered elements, so that two semantically
// equal results render identically regardless of physical order.
func RenderVal(v Val) string {
	switch x := v.(type) {
	case bat.Value:
		if x.K == bat.KFlt {
			return fmt.Sprintf("%.4f", x.F)
		}
		return x.String()
	case *TupleVal:
		parts := make([]string, len(x.Fields))
		for i, f := range x.Fields {
			name := ""
			if i < len(x.Names) && x.Names[i] != "" {
				name = x.Names[i] + ": "
			}
			parts[i] = name + RenderVal(f)
		}
		return "<" + strings.Join(parts, ", ") + ">"
	case *SetVal:
		parts := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			parts[i] = RenderVal(e.V)
		}
		sort.Strings(parts)
		return "{" + strings.Join(parts, ", ") + "}"
	case nil:
		return "nil"
	}
	return fmt.Sprintf("%v", v)
}

// RenderOrdered prints a set keeping element order (for sorted query
// results such as top-N lists).
func RenderOrdered(s *SetVal) string {
	parts := make([]string, len(s.Elems))
	for i, e := range s.Elems {
		parts[i] = RenderVal(e.V)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
