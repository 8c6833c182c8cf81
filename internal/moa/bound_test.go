package moa

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/mil"
)

// definitional evaluates a structure expression the way the formal semantics
// of Struct reads, one id at a time by linear scans: a leaf's value is the
// tail of the first head equal to the id; a tuple needs every field; a set
// holds the resolving members of the rows its owner heads, in row order, and
// is absent when none resolves; an indirection resolves the tail of the
// first head equal to the id. It is the reference Materialize must equal.
func definitional(env mil.Env, s Struct) *SetVal {
	set := s.(SetFn)
	var ids []bat.OID
	if set.Index == "" {
		ids = defEnum(env, set.Elem)
	} else {
		for _, v := range env[set.Index].TailValues() {
			ids = append(ids, bat.OID(v.I))
		}
	}
	out := &SetVal{}
	for _, id := range ids {
		if v, ok := defGet(env, set.Elem, id); ok {
			out.Elems = append(out.Elems, Elem{ID: id, V: v})
		}
	}
	return out
}

func defRows(b *bat.BAT, id bat.OID) []int {
	var rows []int
	for i, h := range b.HeadValues() {
		if h.I == int64(id) {
			rows = append(rows, i)
		}
	}
	return rows
}

func defGet(env mil.Env, s Struct, id bat.OID) (Val, bool) {
	switch x := s.(type) {
	case AtomFn:
		if rows := defRows(env[x.Var], id); len(rows) > 0 {
			return env[x.Var].TailValues()[rows[0]], true
		}
	case TupleFn:
		tv := &TupleVal{Names: x.Names, Fields: make([]Val, len(x.Fields))}
		for i, f := range x.Fields {
			v, ok := defGet(env, f, id)
			if !ok {
				return nil, false
			}
			tv.Fields[i] = v
		}
		return tv, true
	case SetFn:
		if x.Index == "" {
			return defGet(env, x.Elem, id)
		}
		out := &SetVal{}
		for _, r := range defRows(env[x.Index], id) {
			m := bat.OID(env[x.Index].TailValues()[r].I)
			if v, ok := defGet(env, x.Elem, m); ok {
				out.Elems = append(out.Elems, Elem{ID: m, V: v})
			}
		}
		return out, len(out.Elems) > 0
	case SimpleSetFn:
		out := &SetVal{}
		for _, r := range defRows(env[x.Index], id) {
			v := env[x.Index].TailValues()[r]
			out.Elems = append(out.Elems, Elem{ID: bat.OID(v.I), V: v})
		}
		return out, len(out.Elems) > 0
	case ViaFn:
		if rows := defRows(env[x.Via], id); len(rows) > 0 {
			return defGet(env, x.Elem, bat.OID(env[x.Via].TailValues()[rows[0]].I))
		}
	}
	return nil, false
}

func defEnum(env mil.Env, s Struct) []bat.OID {
	var heads []bat.Value
	switch x := s.(type) {
	case AtomFn:
		heads = env[x.Var].HeadValues()
	case ViaFn:
		heads = env[x.Via].HeadValues()
	case TupleFn:
		if len(x.Fields) > 0 {
			return defEnum(env, x.Fields[0])
		}
	case SetFn:
		if x.Index == "" {
			return defEnum(env, x.Elem)
		}
		return defOwners(env[x.Index])
	case SimpleSetFn:
		return defOwners(env[x.Index])
	}
	ids := make([]bat.OID, len(heads))
	for i, h := range heads {
		ids[i] = bat.OID(h.I)
	}
	return ids
}

func defOwners(b *bat.BAT) []bat.OID {
	var ids []bat.OID
	seen := map[bat.OID]bool{}
	for _, h := range b.HeadValues() {
		if o := bat.OID(h.I); !seen[o] {
			seen[o] = true
			ids = append(ids, o)
		}
	}
	return ids
}

// structGen draws random structure expressions over random BATs: heads
// void, dense, repeating or missing ids; datavector-carrying leaves; index
// heads carrying a bat.Grouping; empty nested sets.
type structGen struct {
	rng *rand.Rand
	env mil.Env
	n   int
}

func (g *structGen) bind(b *bat.BAT) string {
	g.n++
	name := fmt.Sprintf("b%d", g.n)
	g.env[name] = b
	return name
}

// ids draws n identifiers below 8, with repeats.
func (g *structGen) ids(n int) []bat.OID {
	out := make([]bat.OID, n)
	for i := range out {
		out[i] = bat.OID(g.rng.Intn(8))
	}
	return out
}

func (g *structGen) head(n int) bat.Column {
	switch g.rng.Intn(3) {
	case 0:
		return bat.NewVoid(bat.OID(g.rng.Intn(3)), n)
	case 1:
		return bat.NewOIDCol(g.ids(n))
	}
	perm := g.rng.Perm(8)[:min(n, 8)]
	out := make([]bat.OID, n)
	for i := range out {
		out[i] = bat.OID(perm[i%len(perm)])
	}
	return bat.NewOIDCol(out)
}

func (g *structGen) tail(n int) bat.Column {
	vals := make([]bat.Value, n)
	k := []bat.Kind{bat.KOID, bat.KInt, bat.KFlt, bat.KStr, bat.KChr, bat.KBit, bat.KDate}[g.rng.Intn(7)]
	for i := range vals {
		d := g.rng.Intn(5)
		switch k {
		case bat.KOID:
			vals[i] = bat.O(bat.OID(d))
		case bat.KInt:
			vals[i] = bat.I(int64(d - 2))
		case bat.KFlt:
			vals[i] = bat.F(float64(d) / 3)
		case bat.KStr:
			vals[i] = bat.S(fmt.Sprintf("s<%d>\"", d))
		case bat.KChr:
			vals[i] = bat.C(byte('a' + d))
		case bat.KBit:
			vals[i] = bat.B(d%2 == 0)
		case bat.KDate:
			vals[i] = bat.D(int32(9000 + d))
		}
	}
	return bat.FromValues(k, vals)
}

func (g *structGen) elem(depth int) Struct {
	switch r := g.rng.Intn(6); {
	case r == 0 && depth < 3:
		n := g.rng.Intn(4)
		t := TupleFn{}
		for i := 0; i < n; i++ {
			t.Names = append(t.Names, fmt.Sprintf("f%d", i))
			t.Fields = append(t.Fields, g.elem(depth+1))
		}
		if n > 0 && g.rng.Intn(4) == 0 {
			t.Names[0] = ""
		}
		return t
	case r == 1 && depth < 3:
		n := g.rng.Intn(7)
		owners := g.head(n)
		if g.rng.Intn(3) == 0 {
			// a head carrying its grouping: ids [0, G) in first-occurrence order
			var ids []bat.OID
			var ext []int32
			for i := 0; i < n; i++ {
				id := bat.OID(g.rng.Intn(len(ext) + 1))
				if int(id) == len(ext) {
					ext = append(ext, int32(i))
				}
				ids = append(ids, id)
			}
			owners = bat.NewGroupIDs(ids, ext)
		}
		return SetFn{Index: g.bind(bat.New("idx", owners, bat.NewOIDCol(g.ids(n)), 0)), Elem: g.elem(depth + 1)}
	case r == 2:
		n := g.rng.Intn(7)
		return SimpleSetFn{Index: g.bind(bat.New("simple", g.head(n), g.tail(n), 0))}
	case r == 3 && depth < 3:
		n := g.rng.Intn(7)
		return ViaFn{Via: g.bind(bat.New("via", g.head(n), bat.NewOIDCol(g.ids(n)), 0)), Elem: g.elem(depth + 1)}
	case r == 4:
		n := g.rng.Intn(8)
		return AtomFn{g.bind(bat.AttachDatavector(bat.New("dv", bat.NewVoid(bat.OID(g.rng.Intn(3)), n), g.tail(n), 0)))}
	}
	n := g.rng.Intn(8)
	return AtomFn{g.bind(bat.New("atom", g.head(n), g.tail(n), 0))}
}

// TestBoundMatchesDefinition: over random structures and BATs, Materialize
// equals the definitional evaluation, and AppendElem renders each element
// exactly as RenderVal renders its materialized value.
func TestBoundMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nested := 0
	for trial := 0; trial < 2000; trial++ {
		g := &structGen{rng: rng, env: mil.Env{}}
		set := SetFn{Elem: g.elem(0)}
		if rng.Intn(4) > 0 {
			n := rng.Intn(10)
			set.Index = g.bind(bat.New("INDEX", bat.NewVoid(0, n), bat.NewOIDCol(g.ids(n)), 0))
		}
		want := definitional(g.env, set)
		got, err := Materialize(g.env, set)
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, set.Render(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d %s:\ngot  %s\nwant %s", trial, set.Render(), RenderOrdered(got), RenderOrdered(want))
		}
		r, _ := Compile(set)
		b, _ := r.Bind(g.env)
		if b.Len() != len(got.Elems) {
			t.Fatalf("trial %d: Len %d, %d elements", trial, b.Len(), len(got.Elems))
		}
		for i, e := range got.Elems {
			a, w := string(b.AppendElem(nil, i)), RenderVal(e.V)
			if a != w {
				t.Fatalf("trial %d %s element %d: AppendElem %s, RenderVal %s", trial, set.Render(), i, a, w)
			}
			if strings.Contains(w, "{") {
				nested++
			}
		}
	}
	if nested < 500 {
		t.Fatalf("only %d elements hold a nested set", nested)
	}
}
