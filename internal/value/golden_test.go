package value

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// goldenValues is one value of every kind and every edge the value
// layer must keep: NaN, ±Inf, −0, the int64 extremes, integral floats
// that share a key with an int, and times in years −1, 0, 9999, 10000
// and 1e6 with nanoseconds, built in non-UTC zones.
func goldenValues() []Value {
	zone := func(h, m int) *time.Location { return time.FixedZone("", h*3600+m*60) }
	return []Value{
		NewNull(),
		NewString(""), NewString("a"), NewString("1:a"), NewString("héllo\x00"),
		NewString("\xff"), NewString("<&>"), NewString("7"),
		NewInt(0), NewInt(-1), NewInt(7), NewInt(1<<53 + 1),
		NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(7), NewFloat(7.5),
		NewFloat(float64(1 << 53)), NewFloat(math.NaN()), NewFloat(math.Inf(1)),
		NewFloat(math.Inf(-1)), NewFloat(1e21), NewFloat(5e-324), NewFloat(math.MaxFloat64),
		NewBool(false), NewBool(true),
		NewTime(time.Unix(0, 0)),
		NewTime(time.Date(2016, 3, 1, 3, 42, 31, 123456789, zone(1, 0))),
		NewTime(time.Date(2016, 3, 1, 2, 42, 31, 123456789, time.UTC)),
		NewTime(time.Date(-1, 6, 15, 12, 0, 0, 1, zone(-9, -30))),
		NewTime(time.Date(0, 1, 1, 0, 30, 0, 500, zone(1, 0))),
		NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999999999, zone(-5, 0))),
		NewTime(time.Date(10000, 1, 1, 0, 0, 0, 42, zone(14, 0))),
		NewTime(time.Date(1000000, 7, 4, 8, 9, 10, 11, zone(-3, -30))),
	}
}

// renderGolden writes, per value, its kind, String, accessors, Key,
// AppendRow bytes and AppendJSON text, then the Equal and Compare
// matrices over every ordered pair: Equal as 'T' or '.', Compare as
// '<', '=', '>' when meaningful and 'l', 'e', 'g' when not.
func renderGolden(vals []Value) string {
	var b strings.Builder
	for i, v := range vals {
		fmt.Fprintf(&b, "%d %s %q int=%d float=%v bool=%v time=%s\n", i, v.Kind(), v.String(),
			v.Int(), v.Float(), v.Bool(), v.Time().Format(time.RFC3339Nano))
		fmt.Fprintf(&b, "  key %q\n  row %s\n  json %s\n", v.Key(),
			hex.EncodeToString(AppendRow(nil, Row{v})), AppendJSON(nil, v))
	}
	b.WriteString("equal\n")
	for _, a := range vals {
		for _, c := range vals {
			if Equal(a, c) {
				b.WriteByte('T')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("compare\n")
	for _, a := range vals {
		for _, c := range vals {
			n, ok := Compare(a, c)
			marks := "lge"
			if ok {
				marks = "<>="
			}
			switch {
			case n < 0:
				b.WriteByte(marks[0])
			case n > 0:
				b.WriteByte(marks[1])
			default:
				b.WriteByte(marks[2])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestValueEncodingGolden pins what a value shows to the rest of the
// system — accessors, Key, the row codec's bytes, the wire JSON, and
// Equal and Compare — to testdata/encoding.golden, so a change to the
// value's layout cannot change a byte of them.
func TestValueEncodingGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/encoding.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(goldenValues())
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from testdata/encoding.golden:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, testdata/encoding.golden has %d", len(gl), len(wl))
}
