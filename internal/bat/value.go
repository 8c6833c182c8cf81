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
	"math"
	"math/bits"
	"strconv"
	"time"
	"unicode/utf8"
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
func DateString(days int64) string { return string(AppendDate(nil, days)) }

// AppendDate appends the date days after 1970-01-01 as "YYYY-MM-DD", exactly
// as time.Format("2006-01-02") prints it, by civil-from-days arithmetic on
// the proleptic Gregorian calendar (eras of 400 years, years starting in
// March so that the leap day ends them).
func AppendDate(buf []byte, days int64) []byte {
	z := days + 719468 // days since 0000-03-01
	era := z / 146097
	if z%146097 < 0 {
		era--
	}
	doe := uint32(z - era*146097)                          // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // [0, 365]
	mp := (5*doy + 2) / 153                                // March = 0
	d, m, y := doy-(153*mp+2)/5+1, (mp+2)%12+1, int64(yoe)+era*400
	if m <= 2 {
		y++
	}
	if y < 0 {
		buf = append(buf, '-')
		y = -y
	}
	if y < 10000 {
		u := uint32(y)
		buf = append(buf, byte('0'+u/1000), byte('0'+u/100%10), byte('0'+u/10%10), byte('0'+u%10))
	} else {
		buf = strconv.AppendInt(buf, y, 10)
	}
	return append(buf, '-', byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d/10), byte('0'+d%10))
}

// AppendValue appends v's canonical rendering, the form answers are served
// and compared in: oids as N@0, floats to four decimals, strings quoted,
// characters in single quotes, dates as YYYY-MM-DD.
func AppendValue(buf []byte, v Value) []byte {
	switch v.K {
	case KVoid:
		return append(buf, "nil"...)
	case KOID:
		return append(strconv.AppendInt(buf, v.I, 10), "@0"...)
	case KInt:
		return strconv.AppendInt(buf, v.I, 10)
	case KFlt:
		return appendFlt(buf, v.F)
	case KStr:
		return strconv.AppendQuote(buf, v.S)
	case KChr:
		return append(utf8.AppendRune(append(buf, '\''), rune(v.I)), '\'')
	case KBit:
		return strconv.AppendBool(buf, v.I != 0)
	case KDate:
		return AppendDate(buf, v.I)
	}
	return append(buf, '?')
}

// appendFlt appends f rounded to four decimals, byte for byte
// strconv.AppendFloat(buf, f, 'f', 4, 64), which takes its slow
// arbitrary-precision path for every 'f' format. A finite f is m·2^e
// exactly, so f·10⁴ is the 128-bit product m·10⁴ shifted by e: its
// quotient, rounded half to even on the remainder, is the answer whenever
// it fits 64 bits (|f| < 1.8e15).
func appendFlt(buf []byte, f float64) []byte {
	b := math.Float64bits(f)
	exp, m := int(b>>52&0x7ff), b&(1<<52-1)
	if exp == 0x7ff {
		return strconv.AppendFloat(buf, f, 'f', 4, 64) // NaN, ±Inf
	}
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		m |= 1 << 52
	}
	hi, lo := bits.Mul64(m, 10000) // below 2^68
	var q uint64
	switch k := 1075 - exp; {
	case k <= 0:
		if hi != 0 || k < -63 || lo>>(64+k) != 0 {
			return strconv.AppendFloat(buf, f, 'f', 4, 64)
		}
		q = lo << -k
	case k < 64:
		if hi>>k != 0 {
			return strconv.AppendFloat(buf, f, 'f', 4, 64)
		}
		q = hi<<(64-k) | lo>>k
		if r, half := lo&(1<<k-1), uint64(1)<<(k-1); r > half || r == half && q&1 == 1 {
			q++
		}
	case k == 64:
		if q = hi; lo > 1<<63 || lo == 1<<63 && q&1 == 1 {
			q++
		}
	case k < 128: // the remainder is (hi mod 2^(k-64), lo), half is 2^(k-1)
		q = hi >> (k - 64)
		if rh, half := hi&(1<<(k-64)-1), uint64(1)<<(k-65); rh > half || rh == half && (lo > 0 || q&1 == 1) {
			q++
		}
	}
	if b>>63 != 0 {
		buf = append(buf, '-')
	}
	d := q % 10000
	buf = strconv.AppendUint(buf, q/10000, 10)
	return append(buf, '.', byte('0'+d/1000), byte('0'+d/100%10), byte('0'+d/10%10), byte('0'+d%10))
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

// String renders the value for display and MIL listings: the canonical
// rendering, except that floats print in full.
func (v Value) String() string {
	if v.K == KFlt {
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	}
	return string(AppendValue(nil, v))
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
