package value

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
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
			w.V = v.Time().Format(time.RFC3339Nano)
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
		NewTime(time.Date(2016, 3, 1, 3, 42, 31, 123456789, paris)),
		NewTime(time.Date(1999, 12, 31, 23, 59, 59, 1, time.FixedZone("", -(9*3600+30*60)))),
		NewTime(time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)))
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
		return NewTime(time.Unix(rng.Int63n(1<<34)-(1<<33), rng.Int63n(1e9)))
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
			NewTime(time.Unix(sec, nsec).In(zone))})
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

// refWireValue and refUnmarshal are the reflective decoder
// UnmarshalJSON replaced: encoding/json into a struct with string
// fields k and v, then the kind switch. They are the reference the
// hand-written decoder must agree with.
type refWireValue struct {
	K string `json:"k"`
	V string `json:"v"`
}

func refUnmarshal(data []byte) (Value, error) {
	var w refWireValue
	if err := json.Unmarshal(data, &w); err != nil {
		return Value{}, err
	}
	switch w.K {
	case "null":
		return NewNull(), nil
	case "string":
		return NewString(w.V), nil
	case "int", "float", "bool":
		kind := map[string]Kind{"int": Int, "float": Float, "bool": Bool}[w.K]
		if v, ok := Coerce(NewString(w.V), kind); ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("bad %s payload %q", w.K, w.V)
	case "time":
		t, err := time.Parse(time.RFC3339Nano, w.V)
		if err != nil {
			return Value{}, err
		}
		return NewTime(t), nil
	}
	return Value{}, fmt.Errorf("unknown kind %q", w.K)
}

// checkUnmarshal fails unless UnmarshalJSON and the reference both
// refuse data, or both accept it with values of the same kind and key.
func checkUnmarshal(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refUnmarshal(data)
	var got Value
	err := got.UnmarshalJSON(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("UnmarshalJSON(%q): error %v, reference error %v", data, err, wantErr)
	}
	if err == nil && (got.Kind() != want.Kind() || got.Key() != want.Key()) {
		t.Fatalf("UnmarshalJSON(%q) = %v (%v), reference %v (%v)", data, got, got.Kind(), want, want.Kind())
	}
}

// unmarshalCases are the inputs where encoding/json's struct decoding
// is easy to get wrong: field names fold case (the Kelvin sign too),
// the last duplicate wins, null leaves a field alone, unknown fields
// are skipped but must be valid, escapes and surrogates, whitespace,
// and everything that is not one object.
var unmarshalCases = []string{
	`{"k":"string","v":"a"}`, `{"k":"string"}`, `{"k":"null"}`, `{"k":"int","v":"-7"}`,
	`{"k":"float","v":" 2.5 "}`, `{"k":"bool","v":"YES"}`, `{"k":"time","v":"2016-03-01T03:42:31.5+01:00"}`,
	`{"K":"int","V":"3"}`, `{"K":"string","v":"kelvin"}`, "{\"\xe2\x84\xaa\":\"int\",\"v\":\"1\"}",
	`{"k":"string","v":"x"}`, `{"kk":"int","v":"1"}`, `{"k ":"int","v":"1"}`,
	`{"k":"int","k":"string","v":"1"}`, `{"k":"string","v":"a","v":null}`, `{"k":"string","k":null,"v":"x"}`,
	`{"v":null,"k":"string"}`, `{"k":null}`, `{"v":"x"}`, `{}`, `null`, `[1,2]`, `"str"`, `1`, `true`, ``, ` `,
	`{"k":1}`, `{"k":"int","v":1}`, `{"k":true}`, `{"k":["int"]}`, `{"k":{"a":1}}`, `{"k":"string","v":[]}`,
	`{"x":[1,{"y":[true,false,null,-0.5e+3,"s\n"]}],"k":"null"}`, `{"x":[1,],"k":"null"}`, `{"x":{,},"k":"null"}`,
	`{"x":01,"k":"null"}`, `{"x":1.,"k":"null"}`, `{"x":-,"k":"null"}`, `{"x":1e,"k":"null"}`, `{"x":tru,"k":"null"}`,
	`{"x":"\q","k":"null"}`, `{"x":"\u12g4","k":"null"}`, `{"x":nul}`, `{"x":{}}`, `{"x":[]}`, `{"x":[ ] ,"k":"null"}`,
	" \t\r\n{ \"k\" : \"string\" , \"v\" : \"a\" } \n", `{"k":"string","v":"a"}x`, `{"k":"string","v":"a"} {}`,
	`{"k":"string","v":"a",}`, `{,"k":"null"}`, `{"k":"null"`, `{"k":"null",`, `{"k" "null"}`, `{"k":"nu`,
	`{"k":"string","v":"😀"}`, `{"k":"string","v":"\ud83d"}`, `{"k":"string","v":"\ude00\ud83d"}`,
	`{"k":"string","v":"\ud83dx"}`, `{"k":"string","v":"\ud83dA"}`, `{"k":"string","v":"\ud83d😀"}`,
	`{"k":"string","v":"\"\\\/\b\f\n\r\té\u0000"}`, "{\"k\":\"string\",\"v\":\"\xff\xfe\xed\xa0\x80\"}",
	"{\"k\":\"string\",\"v\":\"a\tb\"}", "{\"k\":\"string\",\"v\":\"\x7f\"}", `{"k":"string","v":"a"}`,
	`{"k":"int","v":"9223372036854775808"}`, `{"k":"float","v":"1e400"}`, `{"k":"time","v":"nope"}`,
	`{"k":"unknown"}`, `{"k":"String","v":"a"}`, "\xef\xbb\xbf{\"k\":\"null\"}",
}

func TestUnmarshalJSONMatchesReference(t *testing.T) {
	for _, c := range unmarshalCases {
		checkUnmarshal(t, []byte(c))
	}
	deep := strings.Repeat("[", 9999) + strings.Repeat("]", 9999)
	checkUnmarshal(t, []byte(`{"x":`+deep+`,"k":"null"}`))
	checkUnmarshal(t, []byte(`{"x":[`+deep+`],"k":"null"}`))
	for _, v := range awkwardRow(t) {
		checkUnmarshal(t, AppendJSON(nil, v))
	}
}

// FuzzUnmarshalJSON: for any bytes, UnmarshalJSON and the reflective
// reference both refuse them, or both decode values of the same kind
// and key.
func FuzzUnmarshalJSON(f *testing.F) {
	for _, c := range unmarshalCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkUnmarshal(t, data) })
}
