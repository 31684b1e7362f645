package value

import (
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestValueSize: a value is 32 bytes, the size the executor's memory
// budget charges per value (core's valueBytes).
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{NewNull(), Null, "NULL"},
		{NewString("x"), String, "x"},
		{NewInt(-42), Int, "-42"},
		{NewFloat(2.5), Float, "2.5"},
		{NewBool(true), Bool, "true"},
		{NewTime(time.Date(2015, 11, 13, 21, 0, 0, 0, time.UTC)), Time, "2015-11-13T21:00:00Z"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind(%v) = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String(%v) = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Equal(NewInt(3), NewFloat(3.0)) {
		t.Error("3 should equal 3.0")
	}
	if Equal(NewInt(3), NewFloat(3.5)) {
		t.Error("3 should not equal 3.5")
	}
	if Equal(NewString("3"), NewInt(3)) {
		t.Error("'3' should not equal 3")
	}
	if Equal(NewNull(), NewNull()) {
		t.Error("NULL must not equal NULL")
	}
}

func TestKeyConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewFloat(float64(b))
		if Equal(va, vb) {
			return va.Key() == vb.Key()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Spot check: int/float key equality for equal values.
	if NewInt(7).Key() != NewFloat(7).Key() {
		t.Error("7 and 7.0 must share a key")
	}
	if NewString("7").Key() == NewInt(7).Key() {
		t.Error("'7' and 7 must not share a key")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewNull(), NewInt(0), -1},
		{NewInt(0), NewNull(), 1},
		{NewNull(), NewNull(), 0},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		got, _ := Compare(c.a, c.b)
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		ab, _ := Compare(va, vb)
		ba, _ := Compare(vb, va)
		return ab == -ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"42", Int},
		{"-7", Int},
		{"3.14", Float},
		{"true", Bool},
		{"FALSE", Bool},
		{"2015-11-13T21:00:00Z", Time},
		{"hello", String},
		{"12abc", String},
	}
	for _, c := range cases {
		if got := Parse(c.in, true).Kind(); got != c.kind {
			t.Errorf("Parse(%q) kind = %v, want %v", c.in, got, c.kind)
		}
	}
	if !Parse("", true).IsNull() {
		t.Error("empty with nullEmpty should be Null")
	}
	if Parse("", false).Kind() != String {
		t.Error("empty without nullEmpty should be String")
	}
}

func TestCoerce(t *testing.T) {
	if v, ok := Coerce(NewString("42"), Int); !ok || v.Int() != 42 {
		t.Errorf("Coerce('42', Int) = %v, %v", v, ok)
	}
	if v, ok := Coerce(NewInt(42), Float); !ok || v.Float() != 42 {
		t.Errorf("Coerce(42, Float) = %v, %v", v, ok)
	}
	if v, ok := Coerce(NewFloat(3.9), Int); !ok || v.Int() != 3 {
		t.Errorf("Coerce(3.9, Int) = %v, %v", v, ok)
	}
	if _, ok := Coerce(NewString("abc"), Int); ok {
		t.Error("Coerce('abc', Int) should fail")
	}
	if v, ok := Coerce(NewString("2015-11-14"), Time); !ok || v.Time().Year() != 2015 {
		t.Errorf("Coerce(date) = %v, %v", v, ok)
	}
	if v, ok := Coerce(NewString("yes"), Bool); !ok || !v.Bool() {
		t.Errorf("Coerce('yes', Bool) = %v, %v", v, ok)
	}
	if v, ok := Coerce(NewInt(5), Int); !ok || v.Int() != 5 {
		t.Error("identity coerce failed")
	}
}

func TestRowKeyInjectiveOnBoundaries(t *testing.T) {
	// Rows ["ab","c"] and ["a","bc"] must have different keys.
	r1 := Row{NewString("ab"), NewString("c")}
	r2 := Row{NewString("a"), NewString("bc")}
	if r1.Key() == r2.Key() {
		t.Error("row key must encode value boundaries")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestIntFloatAccessors(t *testing.T) {
	if NewFloat(2.9).Int() != 2 {
		t.Error("Float→Int truncation")
	}
	if NewInt(2).Float() != 2.0 {
		t.Error("Int→Float widening")
	}
	if NewBool(true).Int() != 1 || NewBool(false).Int() != 0 {
		t.Error("Bool→Int conversion")
	}
	if NewString("x").Int() != 0 {
		t.Error("String Int() should be 0")
	}
}
