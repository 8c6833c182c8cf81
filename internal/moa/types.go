// Package moa implements the MOA (Magnum Object Algebra) logical layer of
// Boncz, Wilschut & Kersten (ICDE 1998): the structural object data model of
// Section 3.1 (base types combined orthogonally with SET, TUPLE and OBJECT),
// the formal physical-to-logical mapping of Section 3.3 (structure functions
// over identified value sets stored in BATs), and the query algebra of
// Section 4.1, including its concrete textual syntax, parser, and type
// checker.
package moa

import (
	"strings"

	"repro/internal/bat"
)

// Type is a MOA type: a Monet base type, an object reference, a tuple, or a
// set (Section 3.3's type system: basetypes; ⟨τ1,…,τn⟩; {τ}).
type Type interface {
	String() string
	typeNode()
}

// BaseType is an atomic Monet type used as a MOA base type.
type BaseType struct{ K bat.Kind }

func (t BaseType) typeNode()      {}
func (t BaseType) String() string { return t.K.String() }

// ObjectType is a reference to an object of a named class.
type ObjectType struct{ Class string }

func (t ObjectType) typeNode()      {}
func (t ObjectType) String() string { return t.Class }

// Field is one named component of a tuple type.
type Field struct {
	Name string
	Type Type
}

// TupleType is ⟨f1:τ1, …, fn:τn⟩.
type TupleType struct{ Fields []Field }

func (t TupleType) typeNode() {}
func (t TupleType) String() string {
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		parts[i] = f.Name + " : " + f.Type.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// FieldIndex returns the position of the named field, or -1.
func (t TupleType) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// SetType is {τ}.
type SetType struct{ Elem Type }

func (t SetType) typeNode()      {}
func (t SetType) String() string { return "{" + t.Elem.String() + "}" }

// Common base type singletons.
var (
	TInt  = BaseType{bat.KInt}
	TFlt  = BaseType{bat.KFlt}
	TStr  = BaseType{bat.KStr}
	TChr  = BaseType{bat.KChr}
	TBit  = BaseType{bat.KBit}
	TDate = BaseType{bat.KDate}
	TOid  = BaseType{bat.KOID}
)

// TypeEqual reports structural type equality (object types by class name).
func TypeEqual(a, b Type) bool {
	switch x := a.(type) {
	case BaseType:
		y, ok := b.(BaseType)
		return ok && x.K == y.K
	case ObjectType:
		y, ok := b.(ObjectType)
		return ok && x.Class == y.Class
	case SetType:
		y, ok := b.(SetType)
		return ok && TypeEqual(x.Elem, y.Elem)
	case TupleType:
		y, ok := b.(TupleType)
		if !ok || len(x.Fields) != len(y.Fields) {
			return false
		}
		for i := range x.Fields {
			if x.Fields[i].Name != y.Fields[i].Name || !TypeEqual(x.Fields[i].Type, y.Fields[i].Type) {
				return false
			}
		}
		return true
	}
	return false
}

// IsNumericType reports whether t supports arithmetic.
func IsNumericType(t Type) bool {
	b, ok := t.(BaseType)
	return ok && (b.K == bat.KInt || b.K == bat.KFlt)
}

// Schema is a MOA database schema: the collection of class definitions whose
// extents form the database (Section 3.1).
type Schema struct {
	Classes map[string]*Class
	order   []string
}

// Class describes one object class: an ordered list of attributes.
type Class struct {
	Name  string
	Attrs []Field
}

// NewSchema returns an empty schema.
func NewSchema() *Schema { return &Schema{Classes: map[string]*Class{}} }

// AddClass registers a class definition.
func (s *Schema) AddClass(c *Class) {
	s.Classes[c.Name] = c
	s.order = append(s.order, c.Name)
}

// ClassNames returns the class names in definition order.
func (s *Schema) ClassNames() []string { return s.order }

// Attr finds an attribute of a class.
func (c *Class) Attr(name string) (Field, bool) {
	for _, a := range c.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Field{}, false
}

// AttrType resolves the type of attribute name on type t, which must be an
// object or tuple type. The bool reports success.
func (s *Schema) AttrType(t Type, name string) (Type, bool) {
	switch x := t.(type) {
	case ObjectType:
		c, ok := s.Classes[x.Class]
		if !ok {
			return nil, false
		}
		a, ok := c.Attr(name)
		if !ok {
			return nil, false
		}
		return a.Type, true
	case TupleType:
		i := x.FieldIndex(name)
		if i < 0 {
			return nil, false
		}
		return x.Fields[i].Type, true
	}
	return nil, false
}

// --- physical naming conventions (Section 3.3's example) -------------------
//
// The extent BAT of class C is named "C"; the attribute BAT of attribute a
// is "C_a"; components of a set-of-tuples attribute s are "C_s" (the set
// index) and "C_s_f" for each tuple field f.

// ExtentBAT names the extent BAT of a class.
func ExtentBAT(class string) string { return class }

// AttrBAT names the attribute BAT of class.attr.
func AttrBAT(class, attr string) string { return class + "_" + attr }

// NestedBAT names the BAT of field f inside set-valued attribute attr of
// class.
func NestedBAT(class, attr, f string) string { return class + "_" + attr + "_" + f }
