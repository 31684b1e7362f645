package value

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// allKindsRow holds one value of every kind, including the two Times
// whose UTC instant falls outside years 0000–9999 although Coerce
// accepts their text.
func allKindsRow(t testing.TB) Row {
	t.Helper()
	row := Row{
		NewNull(),
		NewString("héllo \x00 world"),
		NewString(""),
		NewInt(-42),
		NewInt(math.MinInt64),
		NewFloat(3.25),
		NewFloat(math.Inf(-1)),
		NewBool(true),
		NewBool(false),
		NewTime(time.Date(2016, 5, 4, 12, 30, 0, 123456789, time.UTC)),
	}
	for _, s := range []string{"9999-12-31T23:59:59-05:00", "0000-01-01T00:30:00+01:00"} {
		v, ok := Coerce(NewString(s), Time)
		if !ok {
			t.Fatalf("Coerce(%q, Time) refused", s)
		}
		row = append(row, v)
	}
	return row
}

func TestRowCodecRoundTripAllKinds(t *testing.T) {
	want := allKindsRow(t)
	got, err := DecodeRow(AppendRow(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(got), len(want))
	}
	for i, v := range want {
		if got[i].Kind() != v.Kind() || got[i].Key() != v.Key() {
			t.Fatalf("col %d: got %v (%v), want %v (%v)", i, got[i], got[i].Kind(), v, v.Kind())
		}
		if v.Kind() == Time && !got[i].Time().Equal(v.Time()) {
			t.Fatalf("col %d: time %v, want %v", i, got[i].Time(), v.Time())
		}
	}
}

func TestRowCodecRejectsCorrupt(t *testing.T) {
	good := AppendRow(nil, Row{NewString("abc"), NewInt(7)})
	if _, err := DecodeRow(good); err != nil {
		t.Fatal(err)
	}
	badNanos := AppendRow(nil, Row{NewTime(time.Unix(0, 0))})
	badNanos[len(badNanos)-4] = 0xFF
	for _, bad := range [][]byte{
		{},
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0xFF),
		{0, 1, 99},
		{0, 1, byte(Bool), 2},
		badNanos,
	} {
		if _, err := DecodeRow(bad); err == nil {
			t.Fatalf("DecodeRow accepted corrupt input %v", bad)
		}
	}
}

// TestAppendRowAllocatesNothing: AppendRow and AppendFrame allocate
// nothing into a buffer with room.
func TestAppendRowAllocatesNothing(t *testing.T) {
	row := allKindsRow(t)
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendFrame(AppendRow(buf[:0], row), row)
	}); n != 0 {
		t.Fatalf("AppendRow + AppendFrame: %v allocations", n)
	}
}

// TestFrameRoundTrip: frames read back in order, a frame longer than
// ReadFrame's chunk included, and the end of input after the last is
// io.ErrUnexpectedEOF.
func TestFrameRoundTrip(t *testing.T) {
	rows := []Row{allKindsRow(t), {}, nil, {NewString(strings.Repeat("x", 200<<10)), NewInt(1)}, {NewNull()}}
	var buf []byte
	for _, r := range rows {
		buf = AppendFrame(buf, r)
	}
	rd := bufio.NewReader(bytes.NewReader(buf))
	var scratch []byte
	for i, want := range rows {
		got, err := ReadFrame(rd, &scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) || got.Key() != want.Key() {
			t.Fatalf("frame %d: %d values, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(rd, &scratch); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read past the last frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameRejects: every cut of a frame is io.ErrUnexpectedEOF, a
// length over MaxFrame is ErrFrameTooLong, and a length that lies costs
// about what was sent, not what it claims.
func TestReadFrameRejects(t *testing.T) {
	frame := AppendFrame(nil, allKindsRow(t))
	for n := 0; n < len(frame); n++ {
		var scratch []byte
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[:n])), &scratch); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame cut at %d of %d bytes: %v, want io.ErrUnexpectedEOF", n, len(frame), err)
		}
	}
	var scratch []byte
	long := binary.AppendUvarint(nil, MaxFrame+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(long)), &scratch); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("frame of MaxFrame+1 bytes: %v, want ErrFrameTooLong", err)
	}
	lying := append(binary.AppendUvarint(nil, MaxFrame), make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(lying)), &scratch)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame claiming MaxFrame bytes with 100 sent: %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a frame claiming %d bytes with 100 sent allocated %d bytes", MaxFrame, grew)
	}
}

// refKey is the string-building Key that AppendKey replaced: the
// reference AppendKey's bytes must equal.
func refKey(v Value) string {
	switch v.Kind() {
	case Null:
		return "\x00n"
	case String:
		return "s" + v.Str()
	case Int:
		return "f" + strconv.FormatFloat(float64(v.Int()), 'g', -1, 64)
	case Float:
		return "f" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case Bool:
		return "b" + strconv.FormatBool(v.Bool())
	case Time:
		return "t" + v.Time().Format(time.RFC3339Nano)
	}
	return "?"
}

// checkKeys fails unless Key, AppendKey (onto a non-empty buffer) and
// Row.Key give the reference bytes for every value of r.
func checkKeys(t *testing.T, r Row) {
	t.Helper()
	var b strings.Builder
	for _, v := range r {
		want := refKey(v)
		if got := v.Key(); got != want {
			t.Fatalf("Key(%v) = %q, want %q", v, got, want)
		}
		if got := AppendKey([]byte("x"), v); string(got) != "x"+want {
			t.Fatalf("AppendKey(x, %v) = %q, want %q", v, got, "x"+want)
		}
		Frame(&b, want)
	}
	if got := r.Key(); got != b.String() {
		t.Fatalf("Row.Key = %q, want %q", got, b.String())
	}
}

func TestKeysMatchReference(t *testing.T) {
	checkKeys(t, allKindsRow(t))
	checkKeys(t, awkwardRow(t))
	checkKeys(t, goldenValues())
	checkKeys(t, Row{NewString(strings.Repeat("long ", 40))})
}

// FuzzDecodeRow: arbitrary bytes decode to an error or a row, a decoded
// row encodes back to the same bytes (each row has one encoding) and
// survives a second encode/decode with the same key (keys, not Equal,
// because NaN != NaN), and every decoded value's key bytes equal the
// reference's.
func FuzzDecodeRow(f *testing.F) {
	f.Add(AppendRow(nil, allKindsRow(f)))
	f.Add(AppendRow(nil, Row{}))
	f.Add(AppendRow(nil, Row{NewFloat(math.NaN()), NewNull()}))
	f.Add([]byte{0, 1, byte(Time), 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		row, err := DecodeRow(b)
		if err != nil {
			return
		}
		if enc := AppendRow(nil, row); !bytes.Equal(enc, b) {
			t.Fatalf("decoded row %v encodes as %x, read from %x", row, enc, b)
		}
		again, err := DecodeRow(AppendRow(nil, row))
		if err != nil {
			t.Fatalf("re-encoded row %v does not decode: %v", row, err)
		}
		if again.Key() != row.Key() {
			t.Fatalf("round trip changed the row: %q -> %q", row.Key(), again.Key())
		}
		checkKeys(t, row)
	})
}
