package value

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestJSONRoundTripAllKinds(t *testing.T) {
	vals := []Value{
		NewNull(),
		NewString("héllo\nworld"),
		NewString(""),
		NewInt(-9007199254740993), // beyond float53 precision
		NewFloat(3.141592653589793),
		NewBool(true),
		NewBool(false),
		NewTime(time.Date(2016, 3, 1, 3, 42, 31, 123456789, time.UTC)),
	}
	for _, v := range vals {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Kind() != v.Kind() {
			t.Errorf("kind: %v → %v", v.Kind(), back.Kind())
		}
		if v.Kind() != Null && !Equal(v, back) {
			t.Errorf("value: %v → %v", v, back)
		}
		if v.Kind() == Time && !v.Time().Equal(back.Time()) {
			t.Errorf("time precision lost: %v vs %v", v.Time(), back.Time())
		}
	}
}

func TestJSONRowRoundTrip(t *testing.T) {
	row := Row{NewString("x"), NewInt(7), NewNull()}
	data, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	var back Row
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || !Equal(back[1], NewInt(7)) || !back[2].IsNull() {
		t.Errorf("row: %+v", back)
	}
}

func TestJSONUnmarshalErrors(t *testing.T) {
	cases := []string{
		`{"k":"unknown","v":"x"}`,
		`{"k":"int","v":"abc"}`,
		`{"k":"float","v":"xx"}`,
		`{"k":"bool","v":"maybe"}`,
		`{"k":"time","v":"not-a-time"}`,
		`[1,2]`,
	}
	for _, c := range cases {
		var v Value
		if err := json.Unmarshal([]byte(c), &v); err == nil {
			t.Errorf("expected error for %s", c)
		}
	}
}

// Property: int round trips exactly for all int64 values.
func TestJSONIntProperty(t *testing.T) {
	f := func(i int64) bool {
		data, err := json.Marshal(NewInt(i))
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.Kind() == Int && back.Int() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: strings round trip byte-exactly.
func TestJSONStringProperty(t *testing.T) {
	f := func(s string) bool {
		data, err := json.Marshal(NewString(s))
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.Kind() == String && back.Str() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLessAndAccessors(t *testing.T) {
	if !Less(NewInt(1), NewInt(2)) || Less(NewInt(2), NewInt(1)) {
		t.Error("Less")
	}
	ts := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	if NewTime(ts).Time() != ts {
		t.Error("Time accessor")
	}
	if NewBool(true).Bool() != true || NewString("x").Bool() != false {
		t.Error("Bool accessor")
	}
	if NewString("s").Str() != "s" {
		t.Error("Str accessor")
	}
	if Null.String() != "null" || Time.String() != "time" {
		t.Error("Kind.String")
	}
}

// refWire and refValue are the reflective encoder AppendJSON replaced:
// json.Marshal of a kind-tagged struct inside the outer json.Marshal.
// They are the reference the appender's bytes must equal.
type refWire struct {
	K string `json:"k"`
	V string `json:"v,omitempty"`
}

type refValue Value

func (rv refValue) MarshalJSON() ([]byte, error) {
	v := Value(rv)
	w := refWire{K: v.Kind().String()}
	if v.kind != Null {
		if v.kind == Time {
			w.V = v.t.Format(time.RFC3339Nano)
		} else {
			w.V = v.String()
		}
	}
	return json.Marshal(w)
}

func refRow(r Row) []refValue {
	if r == nil {
		return nil
	}
	out := make([]refValue, len(r))
	for i, v := range r {
		out[i] = refValue(v)
	}
	return out
}

// checkAppendJSON fails unless AppendJSON, AppendRowJSON and
// MarshalJSON write exactly the reference encoder's bytes for r, its
// values one by one, and r as a row.
func checkAppendJSON(t *testing.T, r Row) {
	t.Helper()
	for _, v := range r {
		want, err := json.Marshal(refValue(v))
		if err != nil {
			t.Fatalf("reference encoder: %v", err)
		}
		if got := AppendJSON(nil, v); string(got) != string(want) {
			t.Fatalf("AppendJSON(%#v)\n got %s\nwant %s", v, got, want)
		}
		if got, _ := json.Marshal(v); string(got) != string(want) {
			t.Fatalf("json.Marshal(%#v)\n got %s\nwant %s", v, got, want)
		}
	}
	want, err := json.Marshal(refRow(r))
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	if got := AppendRowJSON([]byte("x"), r); string(got[1:]) != string(want) || got[0] != 'x' {
		t.Fatalf("AppendRowJSON(%#v)\n got %s\nwant x%s", r, got, want)
	}
	if got, _ := json.Marshal(r); string(got) != string(want) {
		t.Fatalf("json.Marshal(Row %#v)\n got %s\nwant %s", r, got, want)
	}
}

// zoned returns a time value that keeps t's zone: NewTime stores UTC,
// but the appender formats whatever instant and zone a value holds.
func zoned(t time.Time) Value { return Value{kind: Time, t: t} }

// awkwardStrings holds every byte the string escaper treats specially.
func awkwardStrings() []string {
	ss := []string{"", `"`, `\`, `a"b\c`, "<>&", "<script>&amp;</script>",
		"\xe2\x80\xa8", "\xe2\x80\xa9", "x\xe2\x80\xa8y\xe2\x80\xa9z", "\xff", "a\xc3", "\xe2\x80", "\xed\xa0\x80",
		"h\xc3\xa9llo", "\xe6\x97\xa5\xe6\x9c\xac", "\x7f", "\xef\xbb\xbf", "\xef\xbf\xbd", "tab\there\nnew\rline\bback\fform"}
	for b := 0; b < 0x20; b++ {
		ss = append(ss, string([]byte{'<', byte(b), '>'}))
	}
	return ss
}

func awkwardRow(t testing.TB) Row {
	row := allKindsRow(t)
	for _, s := range awkwardStrings() {
		row = append(row, NewString(s))
	}
	paris := time.FixedZone("CET", 3600)
	row = append(row,
		NewInt(math.MaxInt64), NewInt(math.MinInt64), NewInt(0),
		NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewFloat(-0.0), NewFloat(1e21), NewFloat(5e-324), NewFloat(math.MaxFloat64),
		zoned(time.Date(2016, 3, 1, 3, 42, 31, 123456789, paris)),
		zoned(time.Date(1999, 12, 31, 23, 59, 59, 1, time.FixedZone("", -(9*3600+30*60)))),
		zoned(time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)))
	return row
}

// TestAppendJSONMatchesEncodingJSON: the appender writes the reference
// encoder's bytes for every kind and every awkward string, for single
// values, for rows, and for the nil and the empty row.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	checkAppendJSON(t, awkwardRow(t))
	checkAppendJSON(t, nil)
	checkAppendJSON(t, Row{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		row := make(Row, rng.Intn(6))
		for j := range row {
			row[j] = randomValue(rng)
		}
		checkAppendJSON(t, row)
	}
}

// randomValue draws a value of any kind, with a short random byte
// string for strings.
func randomValue(rng *rand.Rand) Value {
	switch Kind(rng.Intn(6)) {
	case String:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return NewString(string(b))
	case Int:
		return NewInt(rng.Int63() - rng.Int63())
	case Float:
		return NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
	case Bool:
		return NewBool(rng.Intn(2) == 0)
	case Time:
		zone := time.FixedZone("", (rng.Intn(48)-24)*1800)
		return zoned(time.Unix(rng.Int63n(1<<34)-(1<<33), rng.Int63n(1e9)).In(zone))
	}
	return NewNull()
}

// FuzzAppendJSON: for any string, int, float, bool and instant, the
// appender writes exactly the reference encoder's bytes, for each value
// and for the row of all of them.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range awkwardStrings() {
		f.Add(s, int64(0), 0.0, false, int64(0), int64(0), 0)
	}
	f.Add("", int64(math.MaxInt64), math.NaN(), true, int64(1456800151), int64(123456789), 3600)
	f.Add("x", int64(math.MinInt64), math.Inf(1), false, int64(-62135596800), int64(1), -34200)
	f.Add("\x00", int64(-1), math.Inf(-1), true, int64(253402300799), int64(999999999), 50400)
	f.Fuzz(func(t *testing.T, s string, i int64, fl float64, b bool, sec, nsec int64, offset int) {
		zone := time.FixedZone("", offset%(26*3600))
		checkAppendJSON(t, Row{NewNull(), NewString(s), NewInt(i), NewFloat(fl), NewBool(b),
			zoned(time.Unix(sec, nsec).In(zone)), NewTime(time.Unix(sec, nsec))})
	})
}

// chunkRecorder records the length of every Write it receives.
type chunkRecorder struct {
	out    []byte
	writes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	c.writes = append(c.writes, len(p))
	return len(p), nil
}

// TestJSONWriterChunks: a long reply reaches the writer in chunks of
// about jsonChunk bytes, never as one whole-reply write, and the
// chunks join to the reference bytes.
func TestJSONWriterChunks(t *testing.T) {
	rows := make([]Row, 5000)
	for i := range rows {
		rows[i] = Row{NewString(fmt.Sprintf("<row %d>", i)), NewInt(int64(i))}
	}
	var rec chunkRecorder
	jw := NewJSONWriter(&rec)
	jw.Raw(`{"rows":`)
	jw.Rows(rows)
	jw.Raw("}")
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(map[string][]Row{"rows": rows})
	if string(rec.out) != string(want) {
		t.Fatalf("JSONWriter output differs from encoding/json (%d vs %d bytes)", len(rec.out), len(want))
	}
	if len(rec.writes) < len(want)/jsonChunk {
		t.Fatalf("%d writes for %d bytes: not chunked", len(rec.writes), len(want))
	}
	for _, n := range rec.writes {
		if n > jsonChunk+128 {
			t.Fatalf("a write of %d bytes, over one chunk (%d) plus a row", n, jsonChunk)
		}
	}
}
