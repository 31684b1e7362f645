// Package value defines the dynamic value model shared by TATOOINE's
// substrates and its mixed-query engine. Tuples flowing between the
// relational store, the full-text store, the RDF store and the mediator
// are rows of Values, so joins across heterogeneous sources compare
// values uniformly.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic types.
type Kind uint8

const (
	Null Kind = iota
	String
	Int
	Float
	Bool
	Time
)

func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one dynamically-typed value. The zero Value is Null.
//
// A Value is 32 bytes with one pointer word, s, the payload of a
// String. Every other payload lives in i: an Int as itself, a Float as
// its IEEE-754 bits, a Bool as 0 or 1, and a Time as Unix seconds with
// its nanoseconds in n. A Time is always UTC, so no zone is kept.
type Value struct {
	s    string
	i    int64
	n    int32
	kind Kind
}

// NewNull returns the null value.
func NewNull() Value { return Value{} }

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: String, s: s} }

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: Int, i: i} }

// NewFloat returns a float value.
func NewFloat(f float64) Value { return Value{kind: Float, i: int64(math.Float64bits(f))} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	if b {
		return Value{kind: Bool, i: 1}
	}
	return Value{kind: Bool}
}

// NewTime returns a timestamp value (stored in UTC).
func NewTime(t time.Time) Value {
	return Value{kind: Time, i: t.Unix(), n: int32(t.Nanosecond())}
}

// Kind returns the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == Null }

// Str returns the string payload (only meaningful for String values).
func (v Value) Str() string { return v.s }

// Int returns the integer payload, converting Float and Bool.
func (v Value) Int() int64 {
	switch v.kind {
	case Int, Bool:
		return v.i
	case Float:
		return int64(v.f())
	default:
		return 0
	}
}

// Float returns the float payload, converting Int.
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return v.f()
	case Int:
		return float64(v.i)
	default:
		return 0
	}
}

// f is a Float's payload.
func (v Value) f() float64 { return math.Float64frombits(uint64(v.i)) }

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.kind == Bool && v.i != 0 }

// Time returns the timestamp payload, in UTC; the zero time.Time for
// any other kind.
func (v Value) Time() time.Time {
	if v.kind != Time {
		return time.Time{}
	}
	return time.Unix(v.i, int64(v.n)).UTC()
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "NULL"
	case String:
		return v.s
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case Bool:
		return strconv.FormatBool(v.i != 0)
	case Time:
		return v.Time().Format(time.RFC3339)
	default:
		return "?"
	}
}

// Key returns a string usable as a join/hash key: equal values (under
// Equal, including cross-numeric equality) produce equal keys.
func (v Value) Key() string {
	var buf [64]byte
	return string(AppendKey(buf[:0], v))
}

// AppendKey appends v.Key()'s bytes to b. Callers that only look a key
// up build it in a reused buffer this way, so no string is made per
// lookup.
func AppendKey(b []byte, v Value) []byte {
	switch v.kind {
	case Null:
		return append(b, 0, 'n')
	case String:
		return append(append(b, 's'), v.s...)
	case Int:
		// Integral floats and ints must share keys (Equal(1, 1.0) is true).
		return strconv.AppendFloat(append(b, 'f'), float64(v.i), 'g', -1, 64)
	case Float:
		return strconv.AppendFloat(append(b, 'f'), v.f(), 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(append(b, 'b'), v.i != 0)
	case Time:
		return v.Time().AppendFormat(append(b, 't'), time.RFC3339Nano)
	default:
		return append(b, '?')
	}
}

// Equal reports semantic equality. Numeric values compare across Int and
// Float. Null equals nothing, including Null (SQL semantics are applied
// by callers that need them; Equal(Null,Null) is false).
func Equal(a, b Value) bool {
	if a.kind == Null || b.kind == Null {
		return false
	}
	if a.isNumeric() && b.isNumeric() {
		return a.Float() == b.Float()
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case String:
		return a.s == b.s
	case Bool, Time:
		return a.i == b.i && a.n == b.n
	default:
		return false
	}
}

func (v Value) isNumeric() bool { return v.kind == Int || v.kind == Float }

// Compare orders a relative to b: -1, 0, +1. Nulls sort first; values of
// different non-numeric kinds order by kind. The second return value is
// false when the comparison is not meaningful (kept for callers that
// must distinguish, e.g. typed predicates).
func Compare(a, b Value) (int, bool) {
	if a.kind == Null && b.kind == Null {
		return 0, true
	}
	if a.kind == Null {
		return -1, true
	}
	if b.kind == Null {
		return 1, true
	}
	if a.isNumeric() && b.isNumeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1, false
		}
		return 1, false
	}
	switch a.kind {
	case String:
		return strings.Compare(a.s, b.s), true
	case Bool, Time:
		return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.n, b.n)), true
	}
	return 0, false
}

// Less is Compare < 0.
func Less(a, b Value) bool {
	c, _ := Compare(a, b)
	return c < 0
}

// Parse converts a string to the most specific Value: integer, float,
// boolean, RFC3339 time, else string. Empty strings parse to Null when
// nullEmpty is true.
func Parse(s string, nullEmpty bool) Value {
	if s == "" {
		if nullEmpty {
			return NewNull()
		}
		return NewString("")
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsInf(f, 0) && !math.IsNaN(f) {
		return NewFloat(f)
	}
	switch s {
	case "true", "TRUE", "True":
		return NewBool(true)
	case "false", "FALSE", "False":
		return NewBool(false)
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return NewTime(t)
	}
	return NewString(s)
}

// Coerce converts v to kind k when a lossless or conventional conversion
// exists; otherwise it returns v unchanged and false.
func Coerce(v Value, k Kind) (Value, bool) {
	if v.kind == k {
		return v, true
	}
	switch k {
	case String:
		return NewString(v.String()), true
	case Int:
		switch v.kind {
		case Float:
			return NewInt(int64(v.f())), true
		case String:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64); err == nil {
				return NewInt(i), true
			}
		case Bool:
			return NewInt(v.Int()), true
		}
	case Float:
		switch v.kind {
		case Int:
			return NewFloat(float64(v.i)), true
		case String:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64); err == nil {
				return NewFloat(f), true
			}
		}
	case Bool:
		if v.kind == String {
			switch strings.ToLower(v.s) {
			case "true", "1", "yes":
				return NewBool(true), true
			case "false", "0", "no":
				return NewBool(false), true
			}
		}
	case Time:
		if v.kind == String {
			for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if t, err := time.Parse(layout, v.s); err == nil {
					return NewTime(t), true
				}
			}
		}
	}
	return v, false
}

// Row is an ordered tuple of values.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Frame appends a length-framed component ("len:content") to b. It is
// the one encoding every collision-critical key builder in the system
// uses (Row.Key, join keys, sub-query cache keys, CMQ canonical keys):
// framing each component makes the concatenation uniquely decodable,
// so no two distinct component sequences produce the same key.
func Frame(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// Key concatenates the value keys, each framed as Frame frames it;
// equal rows produce equal keys.
func (r Row) Key() string {
	var buf [128]byte
	b := buf[:0]
	for _, v := range r {
		b = AppendKeyFrame(b, v)
	}
	return string(b)
}

// AppendKeyFrame appends v's key framed as Frame frames it ("len:key"),
// the form Row.Key gives each value, to b.
func AppendKeyFrame(b []byte, v Value) []byte {
	start := len(b)
	b = AppendKey(b, v)
	n := len(b) - start
	var digits [20]byte
	prefix := append(strconv.AppendInt(digits[:0], int64(n), 10), ':')
	// Make room for the prefix, move the key behind it, and write it.
	b = append(b, prefix...)
	copy(b[start+len(prefix):], b[start:start+n])
	copy(b[start:], prefix)
	return b
}
