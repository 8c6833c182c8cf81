package rewrite

import (
	"repro/internal/moa"
)

// structOf converts an element representation into a structure function over
// the program's (and the database's) BAT variables — the S_Y of Fig. 6.
//
// Objects materialize shallowly: atomic attributes in full, object
// references as oids, set-valued attributes of tuples in full, set-valued
// attributes of objects as oid sets (the SET(A) simple form). Shallow
// reference materialization keeps cyclic schemas (Order.item ↔ Item.order)
// finite.
func (r *rewriter) structOf(rep ElemRep) moa.Struct {
	switch el := rep.(type) {
	case AtomElem:
		return moa.AtomFn{Var: el.Var}
	case RefElem:
		return moa.AtomFn{Var: el.Var}
	case TupleElem:
		fields := make([]moa.Struct, len(el.Fields))
		for i, f := range el.Fields {
			fields[i] = r.structOf(f)
		}
		return moa.TupleFn{Names: el.Names, Fields: fields}
	case NestedSetElem:
		return moa.SetFn{Index: el.Index, Elem: r.structOf(el.Elem)}
	case IndirectElem:
		return moa.ViaFn{Via: el.Via, Elem: r.structOf(el.Elem)}
	case ObjElem:
		cls, ok := r.schema.Classes[el.Class]
		if !ok {
			r.fail("unknown class %q", el.Class)
		}
		names := make([]string, 0, len(cls.Attrs))
		fields := make([]moa.Struct, 0, len(cls.Attrs))
		for _, a := range cls.Attrs {
			names = append(names, a.Name)
			switch t := a.Type.(type) {
			case moa.BaseType, moa.ObjectType:
				fields = append(fields, moa.AtomFn{Var: moa.AttrBAT(cls.Name, a.Name)})
			case moa.SetType:
				switch it := t.Elem.(type) {
				case moa.TupleType:
					inNames := make([]string, len(it.Fields))
					inFields := make([]moa.Struct, len(it.Fields))
					for j, f := range it.Fields {
						inNames[j] = f.Name
						inFields[j] = moa.AtomFn{Var: moa.NestedBAT(cls.Name, a.Name, f.Name)}
					}
					fields = append(fields, moa.SetFn{
						Index: moa.AttrBAT(cls.Name, a.Name),
						Elem:  moa.TupleFn{Names: inNames, Fields: inFields},
					})
				default:
					// objects or atoms: SET(A) simple form
					fields = append(fields, moa.SimpleSetFn{Index: moa.AttrBAT(cls.Name, a.Name)})
				}
			default:
				r.fail("unsupported attribute type %s", a.Type)
			}
		}
		return moa.TupleFn{Names: names, Fields: fields, Object: true, Class: cls.Name}
	}
	r.fail("unknown element representation %T", rep)
	return nil
}

// renameStruct rewrites the variables a structure function names through
// alias (eliminated variable → surviving twin).
func renameStruct(s moa.Struct, alias map[string]string) moa.Struct {
	if len(alias) == 0 {
		return s
	}
	name := func(v string) string {
		if a, ok := alias[v]; ok {
			return a
		}
		return v
	}
	switch x := s.(type) {
	case moa.AtomFn:
		return moa.AtomFn{Var: name(x.Var)}
	case moa.TupleFn:
		fields := make([]moa.Struct, len(x.Fields))
		for i, f := range x.Fields {
			fields[i] = renameStruct(f, alias)
		}
		x.Fields = fields
		return x
	case moa.SetFn:
		return moa.SetFn{Index: name(x.Index), Elem: renameStruct(x.Elem, alias)}
	case moa.SimpleSetFn:
		return moa.SimpleSetFn{Index: name(x.Index)}
	case moa.ViaFn:
		return moa.ViaFn{Via: name(x.Via), Elem: renameStruct(x.Elem, alias)}
	}
	return s
}
