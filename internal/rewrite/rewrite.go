// Package rewrite implements the MOA→MIL term rewriter of Boncz, Wilschut &
// Kersten (ICDE 1998), Section 4.3: "For each operation in MOA, a
// transformation rule for the translation of the operation into a MIL
// program and structure function is generated. The MOA implementation
// consists of a straightforward term rewriter."
//
// Every set-typed MOA expression translates to a SetRep: a candidate BAT
// variable whose head column enumerates the element identifiers, plus a
// description of how the elements' values are reached (ElemRep). Translating
// an operation emits MIL statements against the builder and produces a new
// SetRep; the driver finally wraps the result representation into a
// structure function (Fig. 6), establishing
//
//	S_Y(mil(X1,…,Xn)) = moa(X).
package rewrite

import (
	"fmt"

	"repro/internal/mil"
	"repro/internal/moa"
)

// Result is a translated query: a MIL program plus the structure function
// interpreting the program's result variables, per Fig. 6.
type Result struct {
	Prog   *mil.Program
	Struct moa.Struct
	// Resolver is Struct compiled, bound per execution to the program's
	// result BATs.
	Resolver *moa.Resolver
	Type     moa.Type
	// Raw is the program as the rewriter emitted it, before mil.Optimize
	// computed each value once, and Translated its length.
	Raw        *mil.Program
	Translated int
}

// Translate rewrites a checked MOA query into a MIL program and result
// structure function. The program is the optimized one (mil.Optimize): each
// value is computed once, and the structure function names the surviving
// variables.
func Translate(ck *moa.Checked) (*Result, error) {
	res, err := translate(ck)
	if err != nil {
		return nil, err
	}
	prog, alias := mil.Optimize(res.Prog)
	st := renameStruct(res.Struct, alias)
	rv, err := moa.Compile(st)
	if err != nil {
		return nil, err
	}
	return &Result{Prog: prog, Struct: st, Resolver: rv, Type: res.Type,
		Raw: res.Prog, Translated: len(res.Prog.Stmts)}, nil
}

// translate is the term rewriter proper: the program as the rules of
// Section 4.3 emit it, one MIL chain per attribute path.
func translate(ck *moa.Checked) (res *Result, err error) {
	r := &rewriter{ck: ck, schema: ck.Schema, b: mil.NewBuilder()}
	defer func() {
		if p := recover(); p != nil {
			if te, ok := p.(translateError); ok {
				err = error(te.err)
				return
			}
			panic(p)
		}
	}()

	var st moa.Struct
	if _, isSet := ck.TypeOf(ck.Root).(moa.SetType); isSet {
		sres := r.evalSet(ck.Root)
		// The result index lists the element ids in its tail, like the
		// paper's INDEX[void,oid]; the candidate carries them in its head,
		// so the index is its (free) mirror.
		idx := r.b.Emit("INDEX", mil.Stmt{Op: mil.OpMirror,
			Args: []mil.StmtArg{mil.VarArg(sres.rep.Cand)}})
		st = moa.SetFn{Index: idx, Elem: r.structOf(sres.rep.Elem)}
	} else {
		// top-level scalar aggregate (Q6-style)
		sr := r.evalScalar(ck.Root)
		v := sr.ScalarVar
		if v == "" {
			r.fail("top-level expression must be a set or scalar aggregate")
		}
		st = moa.SetFn{Index: "", Elem: moa.AtomFn{Var: v}}
	}
	for _, v := range structVars(st) {
		r.b.KeepVar(v)
	}
	return &Result{Prog: r.b.Program(), Struct: st, Type: ck.TypeOf(ck.Root)}, nil
}

// translateError carries a translation failure through the recursive
// rewriter without threading error returns through every rule.
type translateError struct{ err error }

type rewriter struct {
	ck     *moa.Checked
	schema *moa.Schema
	b      *mil.Builder
	scopes []*SetRep // innermost last
}

func (r *rewriter) fail(format string, args ...interface{}) {
	panic(translateError{fmt.Errorf("rewrite: "+format, args...)})
}

func (r *rewriter) scope(depth int) *SetRep {
	i := len(r.scopes) - 1 - depth
	if i < 0 {
		r.fail("reference escapes %d scopes, only %d open", depth, len(r.scopes))
	}
	return r.scopes[i]
}

func (r *rewriter) push(s *SetRep) { r.scopes = append(r.scopes, s) }
func (r *rewriter) pop()           { r.scopes = r.scopes[:len(r.scopes)-1] }

// SetRep is the flattened representation of a set-typed expression: Cand
// names a BAT whose head column enumerates the element identifiers; Elem
// describes how element values are obtained from those identifiers.
type SetRep struct {
	Cand string
	// CandIsExtent marks an untouched class extent, enabling the paper's
	// reversed first-conjunct strategy (select on the attribute BAT, then
	// join back — Fig. 10 lines 1-2).
	CandIsExtent bool
	Elem         ElemRep
}

// ElemRep describes the flattened representation of set elements.
type ElemRep interface{ elemRep() }

// ObjElem: elements are stored objects of Class, identified by their oids;
// attribute values live in the persistent attribute BATs.
type ObjElem struct{ Class string }

func (ObjElem) elemRep() {}

// AtomElem: a materialized identified value set [elemid, value] in Var.
// AlignedTo, when non-empty, names the candidate variable whose head set Var
// is already restricted to — letting accesses skip the (re-)restricting
// semijoin.
type AtomElem struct {
	Var       string
	AlignedTo string
}

func (AtomElem) elemRep() {}

// RefElem: like AtomElem but the values are oids referencing objects of
// Class (a projected object-valued field).
type RefElem struct {
	Var       string
	Class     string
	AlignedTo string
}

func (RefElem) elemRep() {}

// TupleElem: elements are tuples; every field representation is keyed by the
// same element identifiers.
type TupleElem struct {
	Names  []string
	Fields []ElemRep
}

func (TupleElem) elemRep() {}

// NestedSetElem: a set-valued field. Index names a BAT [elemid, subid]; the
// sub-elements are described by Elem, keyed by subid.
type NestedSetElem struct {
	Index string
	Elem  ElemRep
}

func (NestedSetElem) elemRep() {}

// IndirectElem: elements reached through an indirection BAT [elemid,
// baseid]; Elem is keyed by baseid. Produced by the generic join, whose
// pairs get fresh identities.
type IndirectElem struct {
	Via  string
	Elem ElemRep
}

func (IndirectElem) elemRep() {}

// setRes is the result of translating a set expression: its representation,
// plus — when the set is reached from an element of an enclosing scope
// (a set-valued attribute, the nested group of a nest) — the ownership index
// [owner elemid, member id] that per-owner aggregation needs.
type setRes struct {
	rep      *SetRep
	ownerIdx string
}

// --- set-expression translation ----------------------------------------------

func (r *rewriter) evalSet(e moa.Expr) setRes {
	switch x := e.(type) {
	case *moa.ClassExtent:
		return setRes{rep: &SetRep{
			Cand:         moa.ExtentBAT(x.Class),
			CandIsExtent: true,
			Elem:         ObjElem{Class: x.Class},
		}}

	case *moa.AttrRef:
		return r.evalSetPath(x)

	case *moa.SelectExpr:
		in := r.evalSet(x.In)
		sc := &SetRep{Cand: in.rep.Cand, CandIsExtent: in.rep.CandIsExtent, Elem: in.rep.Elem}
		r.push(sc)
		r.translatePreds(sc, x.Preds)
		r.pop()
		out := setRes{rep: &SetRep{Cand: sc.Cand, Elem: in.rep.Elem}}
		if in.ownerIdx != "" {
			// keep only (owner, member) pairs whose member survived:
			// mirror, semijoin on member ids, mirror back (mirrors are
			// free).
			m := r.b.Emit("m", mil.Stmt{Op: mil.OpMirror, Args: []mil.StmtArg{mil.VarArg(in.ownerIdx)}})
			m2 := r.b.Emit("own", mil.Stmt{Op: mil.OpSemijoin, Args: []mil.StmtArg{mil.VarArg(m), mil.VarArg(sc.Cand)}})
			out.ownerIdx = r.b.Emit("own", mil.Stmt{Op: mil.OpMirror, Args: []mil.StmtArg{mil.VarArg(m2)}})
		}
		return out

	case *moa.ProjectExpr:
		in := r.evalSet(x.In)
		r.push(in.rep)
		fields := make([]ElemRep, len(x.Items))
		names := make([]string, len(x.Items))
		for i, it := range x.Items {
			names[i] = it.Name
			fields[i] = r.evalField(in.rep, it.E)
		}
		r.pop()
		var elem ElemRep
		if x.Tuple {
			elem = TupleElem{Names: names, Fields: fields}
		} else {
			elem = fields[0]
		}
		return setRes{
			rep:      &SetRep{Cand: in.rep.Cand, Elem: elem},
			ownerIdx: in.ownerIdx,
		}

	case *moa.NestExpr:
		return r.evalNest(x)

	case *moa.UnnestExpr:
		return r.evalUnnest(x)

	case *moa.JoinExpr:
		return r.evalJoin(x)

	case *moa.SortExpr:
		in := r.evalSet(x.In)
		r.push(in.rep)
		key := r.evalScalar(x.Key)
		r.pop()
		if key.Var == "" {
			r.fail("sort key must vary per element")
		}
		sorted := r.b.Emit("sorted", mil.Stmt{Op: mil.OpSort, Desc: x.Desc,
			Args: []mil.StmtArg{mil.VarArg(key.Var)}})
		return setRes{rep: &SetRep{Cand: sorted, Elem: in.rep.Elem}, ownerIdx: in.ownerIdx}

	case *moa.TopExpr:
		in := r.evalSet(x.In)
		cand := r.b.Emit("top", mil.Stmt{Op: mil.OpSlice, N: x.N,
			Args: []mil.StmtArg{mil.VarArg(in.rep.Cand)}})
		return setRes{rep: &SetRep{Cand: cand, Elem: in.rep.Elem}, ownerIdx: in.ownerIdx}

	case *moa.SetOpExpr:
		return r.evalSetOp(x)
	}
	r.fail("unsupported set expression %T", e)
	return setRes{}
}

// evalField translates one projection item: a scalar expression becomes an
// AtomElem (or RefElem), a set expression a NestedSetElem.
func (r *rewriter) evalField(sc *SetRep, e moa.Expr) ElemRep {
	if _, isSet := r.ck.TypeOf(e).(moa.SetType); isSet {
		res := r.evalSet(e)
		if res.ownerIdx == "" {
			r.fail("projected set %s is not reached from the element in scope", e)
		}
		return NestedSetElem{Index: res.ownerIdx, Elem: res.rep.Elem}
	}
	sr := r.evalScalar(e)
	v := sr.Var
	if v == "" {
		// constant or scalar-subquery field: lift over the candidate
		args := []mil.StmtArg{mil.VarArg(sc.Cand), sr.arg()}
		v = r.b.Emit("const", mil.Stmt{Op: mil.OpMultiplex, Fn: "snd", Args: args})
	}
	if ot, ok := r.ck.TypeOf(e).(moa.ObjectType); ok {
		return RefElem{Var: v, Class: ot.Class, AlignedTo: sc.Cand}
	}
	return AtomElem{Var: v, AlignedTo: sc.Cand}
}

// evalNest translates nest[k1,…,kn](S) via group / binary group refinement
// (Fig. 4, Fig. 5 "Grouping" phase).
func (r *rewriter) evalNest(x *moa.NestExpr) setRes {
	in := r.evalSet(x.In)
	if in.ownerIdx != "" {
		r.fail("nest of a nested set-valued attribute is not supported")
	}
	tuple, ok := in.rep.Elem.(TupleElem)
	if !ok {
		r.fail("nest requires a set of tuples")
	}
	r.push(in.rep)
	keyVars := make([]string, len(x.Keys))
	for i, k := range x.Keys {
		sr := r.evalScalar(k)
		if sr.Var == "" {
			r.fail("nest key must vary per element")
		}
		keyVars[i] = sr.Var
	}
	r.pop()

	grp := r.b.Emit("class", mil.Stmt{Op: mil.OpGroup, Args: []mil.StmtArg{mil.VarArg(keyVars[0])}})
	for _, kv := range keyVars[1:] {
		grp = r.b.Emit("class", mil.Stmt{Op: mil.OpGroup2,
			Args: []mil.StmtArg{mil.VarArg(grp), mil.VarArg(kv)}})
	}
	grpMirror := r.b.Emit("index", mil.Stmt{Op: mil.OpMirror, Args: []mil.StmtArg{mil.VarArg(grp)}})

	// one representative key value per group: join(class.mirror, key).unique
	names := make([]string, 0, len(x.Keys)+1)
	fields := make([]ElemRep, 0, len(x.Keys)+1)
	var cand string
	for i, kv := range keyVars {
		j := r.b.Emit("gk", mil.Stmt{Op: mil.OpJoin,
			Args: []mil.StmtArg{mil.VarArg(grpMirror), mil.VarArg(kv)}})
		u := r.b.Emit("KEY", mil.Stmt{Op: mil.OpUnique, Args: []mil.StmtArg{mil.VarArg(j)}})
		ref := x.Keys[i].(*moa.AttrRef)
		names = append(names, ref.Path[len(ref.Path)-1])
		// Object-valued keys stay navigable after grouping (Q3/Q10 fetch
		// o.orderdate from the grouped order).
		if ot, isRef := r.ck.TypeOf(x.Keys[i]).(moa.ObjectType); isRef {
			fields = append(fields, RefElem{Var: u, Class: ot.Class})
		} else {
			fields = append(fields, AtomElem{Var: u})
		}
		if cand == "" {
			cand = u
		}
	}
	// Every key value set carries exactly the group ids: aligned to cand.
	for i := range fields {
		switch f := fields[i].(type) {
		case AtomElem:
			f.AlignedTo = cand
			fields[i] = f
		case RefElem:
			f.AlignedTo = cand
			fields[i] = f
		}
	}
	names = append(names, moa.GroupField)
	fields = append(fields, NestedSetElem{Index: grpMirror, Elem: tuple})

	return setRes{rep: &SetRep{Cand: cand, Elem: TupleElem{Names: names, Fields: fields}}}
}

// evalUnnest translates unnest[attr](S) for S a set of objects with a
// set-valued attribute.
func (r *rewriter) evalUnnest(x *moa.UnnestExpr) setRes {
	in := r.evalSet(x.In)
	obj, ok := in.rep.Elem.(ObjElem)
	if !ok {
		r.fail("unnest requires a set of objects")
	}
	attrType, _ := r.schema.AttrType(moa.ObjectType{Class: obj.Class}, x.Attr)
	st, ok := attrType.(moa.SetType)
	if !ok {
		r.fail("unnest attribute %q is not set-valued", x.Attr)
	}
	idx := r.b.Emit("own", mil.Stmt{Op: mil.OpSemijoin,
		Args: []mil.StmtArg{mil.VarArg(moa.AttrBAT(obj.Class, x.Attr)), mil.VarArg(in.rep.Cand)}})
	cand := r.b.Emit("sub", mil.Stmt{Op: mil.OpMirror, Args: []mil.StmtArg{mil.VarArg(idx)}})

	names := []string{"owner"}
	fields := []ElemRep{RefElem{Var: cand, Class: obj.Class}}
	switch it := st.Elem.(type) {
	case moa.TupleType:
		for _, f := range it.Fields {
			names = append(names, f.Name)
			rep := r.nestedFieldRep(obj.Class, x.Attr, f)
			fields = append(fields, rep)
		}
	case moa.ObjectType:
		names = append(names, "value")
		fields = append(fields, RefElem{Var: cand, Class: it.Class})
	default:
		r.fail("unnest of a set of %s is not supported", st.Elem)
	}
	// Unnesting consumes ownership: the result's elements are the
	// sub-elements, the owner becomes an ordinary field. Only if the input
	// itself was reached from an enclosing scope does ownership propagate
	// (composed through the set index).
	ownerIdx := ""
	if in.ownerIdx != "" {
		ownerIdx = r.b.Emit("own", mil.Stmt{Op: mil.OpJoin,
			Args: []mil.StmtArg{mil.VarArg(in.ownerIdx), mil.VarArg(idx)}})
	}
	return setRes{rep: &SetRep{Cand: cand, Elem: TupleElem{Names: names, Fields: fields}}, ownerIdx: ownerIdx}
}

func (r *rewriter) nestedFieldRep(class, attr string, f moa.Field) ElemRep {
	v := moa.NestedBAT(class, attr, f.Name)
	if ot, ok := f.Type.(moa.ObjectType); ok {
		return RefElem{Var: v, Class: ot.Class}
	}
	return AtomElem{Var: v}
}

// evalJoin translates join[pred](A,B) / semijoin[pred](A,B). The predicate
// must be a conjunction of equalities between a path on %1 and a path on %2;
// these become composite hash-join keys.
func (r *rewriter) evalJoin(x *moa.JoinExpr) setRes {
	l := r.evalSet(x.L)
	rr := r.evalSet(x.R)

	var lPaths, rPaths []*moa.AttrRef
	var collect func(p moa.Expr)
	collect = func(p moa.Expr) {
		c, ok := p.(*moa.Call)
		if ok && c.Fn == "and" {
			for _, a := range c.Args {
				collect(a)
			}
			return
		}
		if !ok || c.Fn != "=" || len(c.Args) != 2 {
			r.fail("join predicate must be a conjunction of equalities, got %s", p)
		}
		a, aok := c.Args[0].(*moa.AttrRef)
		b, bok := c.Args[1].(*moa.AttrRef)
		if !aok || !bok || len(a.Path) < 2 || len(b.Path) < 2 {
			r.fail("join equality must compare %%1 and %%2 paths, got %s", p)
		}
		switch {
		case a.Path[0] == "$l" && b.Path[0] == "$r":
			lPaths, rPaths = append(lPaths, a), append(rPaths, b)
		case a.Path[0] == "$r" && b.Path[0] == "$l":
			lPaths, rPaths = append(lPaths, b), append(rPaths, a)
		default:
			r.fail("join equality must compare %%1 and %%2 paths, got %s", p)
		}
	}
	collect(x.Pred)

	keyVarsOn := func(sc *SetRep, paths []*moa.AttrRef) []string {
		r.push(sc)
		defer r.pop()
		out := make([]string, len(paths))
		for i, p := range paths {
			sr := r.evalScalar(&moa.AttrRef{Depth: 0, Path: p.Path[1:]})
			if sr.Var == "" {
				r.fail("join key must vary per element")
			}
			out[i] = sr.Var
		}
		return out
	}
	lKeys := keyVarsOn(l.rep, lPaths)
	rKeys := keyVarsOn(rr.rep, rPaths)

	pairs := r.b.Emit("pairs", mil.Stmt{Op: mil.OpJoinMulti, LKeys: lKeys, RKeys: rKeys})
	if x.Semi {
		cand := r.b.Emit("sel", mil.Stmt{Op: mil.OpSemijoin,
			Args: []mil.StmtArg{mil.VarArg(l.rep.Cand), mil.VarArg(pairs)}})
		return setRes{rep: &SetRep{Cand: cand, Elem: l.rep.Elem}}
	}
	pl := r.b.Emit("pl", mil.Stmt{Op: mil.OpMark, Args: []mil.StmtArg{mil.VarArg(pairs)}})
	pm := r.b.Emit("pm", mil.Stmt{Op: mil.OpMirror, Args: []mil.StmtArg{mil.VarArg(pairs)}})
	pr := r.b.Emit("pr", mil.Stmt{Op: mil.OpMark, Args: []mil.StmtArg{mil.VarArg(pm)}})
	elem := TupleElem{
		Names: []string{"$l", "$r"},
		Fields: []ElemRep{
			IndirectElem{Via: pl, Elem: l.rep.Elem},
			IndirectElem{Via: pr, Elem: rr.rep.Elem},
		},
	}
	return setRes{rep: &SetRep{Cand: pl, Elem: elem}}
}

func (r *rewriter) evalSetOp(x *moa.SetOpExpr) setRes {
	l := r.evalSet(x.L)
	rr := r.evalSet(x.R)
	sameElem := func(a, b ElemRep) bool {
		av, aok := a.(ObjElem)
		bv, bok := b.(ObjElem)
		if aok && bok {
			return av.Class == bv.Class
		}
		return false
	}
	op := map[string]string{"union": mil.OpUnion, "difference": mil.OpDiff, "intersection": mil.OpIntersect}[x.Op]
	args := []mil.StmtArg{mil.VarArg(l.rep.Cand), mil.VarArg(rr.rep.Cand)}
	switch {
	case sameElem(l.rep.Elem, rr.rep.Elem):
		cand := r.b.Emit(x.Op, mil.Stmt{Op: op, Args: args})
		return setRes{rep: &SetRep{Cand: cand, Elem: l.rep.Elem}}
	default:
		la, laok := l.rep.Elem.(AtomElem)
		ra, raok := rr.rep.Elem.(AtomElem)
		if !laok || !raok {
			r.fail("%s of structurally different sets is not supported", x.Op)
		}
		// merge the value sets restricted to their candidates
		lv := r.restrict(la.Var, l.rep.Cand)
		rv := r.restrict(ra.Var, rr.rep.Cand)
		out := r.b.Emit(x.Op, mil.Stmt{Op: op, Args: []mil.StmtArg{mil.VarArg(lv), mil.VarArg(rv)}})
		return setRes{rep: &SetRep{Cand: out, Elem: AtomElem{Var: out}}}
	}
}

// restrict produces var's IVS filtered to the candidate (a semijoin — free
// when they are already synced).
func (r *rewriter) restrict(v, cand string) string {
	if v == cand {
		return v
	}
	return r.b.Emit("sel", mil.Stmt{Op: mil.OpSemijoin,
		Args: []mil.StmtArg{mil.VarArg(v), mil.VarArg(cand)}})
}

// structVars collects the BAT variables a structure function references.
func structVars(s moa.Struct) []string {
	var out []string
	var walk func(moa.Struct)
	walk = func(s moa.Struct) {
		switch x := s.(type) {
		case moa.AtomFn:
			out = append(out, x.Var)
		case moa.TupleFn:
			for _, f := range x.Fields {
				walk(f)
			}
		case moa.SetFn:
			if x.Index != "" {
				out = append(out, x.Index)
			}
			walk(x.Elem)
		case moa.SimpleSetFn:
			out = append(out, x.Index)
		case moa.ViaFn:
			out = append(out, x.Via)
			walk(x.Elem)
		}
	}
	walk(s)
	return out
}
