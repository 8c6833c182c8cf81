// Package bat implements the Binary Association Table storage substrate of
// the Monet kernel as described in Boncz, Wilschut & Kersten, "Flattening an
// Object Algebra to Provide Performance" (ICDE 1998), Sections 2, 3.2 and 5.
//
// A BAT is a two-column table; the left column is the head, the right the
// tail. All structured data is fully vertically decomposed over BATs
// [CoK85]. BATs carry kernel-maintained properties (ordered, key, synced,
// dense) that drive run-time algorithm selection, and may carry search
// accelerators: hash tables and the paper's datavector accelerator.
package bat

import (
	"fmt"
	"strconv"
	"time"
)

// OID is a Monet object identifier. The paper's oids are dense small
// integers handed out per class extent.
type OID uint32

// Kind enumerates the atomic Monet types available to MOA as base types
// (Section 3.1), plus void, the zero-width dense column type of footnote 2.
type Kind uint8

const (
	// KVoid is the zero-space column type: a dense ascending oid sequence
	// represented only by its seqbase.
	KVoid Kind = iota
	// KOID is the object identifier type.
	KOID
	// KInt is the integer type (covers the paper's short, integer, long).
	KInt
	// KFlt is the floating point type (covers float and double).
	KFlt
	// KStr is the variable-width string type, stored via a string heap.
	KStr
	// KChr is the single character type.
	KChr
	// KBit is the boolean type.
	KBit
	// KDate is the instant type, stored as days since 1970-01-01.
	KDate
)

var kindNames = [...]string{"void", "oid", "int", "flt", "str", "chr", "bit", "date"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a boxed atomic value. It is a comparable struct so that it can be
// used directly as a hash key by the hash-based operators.
type Value struct {
	K Kind
	I int64   // OID, Int, Chr, Bit (0/1), Date (days)
	F float64 // Flt
	S string  // Str
}

// Convenience constructors.

// O boxes an object identifier.
func O(v OID) Value { return Value{K: KOID, I: int64(v)} }

// I boxes an integer.
func I(v int64) Value { return Value{K: KInt, I: v} }

// F boxes a float.
func F(v float64) Value { return Value{K: KFlt, F: v} }

// S boxes a string.
func S(v string) Value { return Value{K: KStr, S: v} }

// C boxes a character.
func C(v byte) Value { return Value{K: KChr, I: int64(v)} }

// B boxes a boolean.
func B(v bool) Value {
	if v {
		return Value{K: KBit, I: 1}
	}
	return Value{K: KBit}
}

// D boxes a date given as days since 1970-01-01.
func D(days int32) Value { return Value{K: KDate, I: int64(days)} }

// DateFromString parses "YYYY-MM-DD" into a date Value.
func DateFromString(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Value{}, fmt.Errorf("bad date %q: %w", s, err)
	}
	return D(int32(t.Unix() / 86400)), nil
}

// MustDate is DateFromString for literals known to be valid.
func MustDate(s string) Value {
	v, err := DateFromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// DateString renders a date value as "YYYY-MM-DD".
func DateString(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// OID returns the value as an OID; the caller must know the kind.
func (v Value) OID() OID { return OID(v.I) }

// Bool reports whether a bit value is true.
func (v Value) Bool() bool { return v.I != 0 }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.K == KInt || v.K == KFlt }

// AsFloat widens a numeric value to float64.
func (v Value) AsFloat() float64 {
	if v.K == KFlt {
		return v.F
	}
	return float64(v.I)
}

// String renders the value for display and MIL listings.
func (v Value) String() string {
	switch v.K {
	case KVoid:
		return "nil"
	case KOID:
		return fmt.Sprintf("%d@0", v.I)
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFlt:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KStr:
		return strconv.Quote(v.S)
	case KChr:
		return "'" + string(rune(v.I)) + "'"
	case KBit:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KDate:
		return DateString(v.I)
	}
	return "?"
}

// Compare orders two values of the same kind: -1, 0 or +1. Values of
// different numeric kinds are compared as floats. Comparing other mixed
// kinds orders by kind, which gives a total (if arbitrary) order.
func Compare(a, b Value) int {
	if a.K != b.K {
		if a.IsNumeric() && b.IsNumeric() {
			return cmpFloat(a.AsFloat(), b.AsFloat())
		}
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KFlt:
		return cmpFloat(a.F, b.F)
	case KStr:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	default:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports value equality under the same comparison semantics as
// Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Less reports a < b under Compare.
func Less(a, b Value) bool { return Compare(a, b) < 0 }
