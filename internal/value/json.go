package value

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// wireValue is the decoded JSON shape of a Value on the wire: an
// explicit kind tag plus a string payload keeps round trips exact (no
// float/int confusion, no timezone loss). AppendJSON writes the shape.
type wireValue struct {
	K string `json:"k"`
	V string `json:"v"`
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) { return AppendJSON(nil, v), nil }

// AppendJSON appends v's wire form {"k":kind,"v":payload} to buf. The
// payload is v.String(), or RFC 3339 with nanoseconds for a time, and
// "v" is left out when the payload is empty (null and the empty
// string). The bytes are those encoding/json writes for the same
// object, HTML escaping included.
func AppendJSON(buf []byte, v Value) []byte {
	buf = append(buf, `{"k":"`...)
	buf = append(buf, v.kind.String()...)
	switch v.kind {
	case Null:
		return append(buf, `"}`...)
	case String:
		if v.s == "" {
			return append(buf, `"}`...)
		}
		buf = append(buf, `","v":`...)
		buf = appendJSONString(buf, v.s)
		return append(buf, '}')
	}
	buf = append(buf, `","v":"`...)
	switch v.kind {
	case Int:
		buf = strconv.AppendInt(buf, v.i, 10)
	case Float:
		buf = strconv.AppendFloat(buf, v.f, 'g', -1, 64)
	case Bool:
		buf = strconv.AppendBool(buf, v.b)
	case Time:
		// RFC 3339 text is digits, signs, 'T', 'Z', ':' and '.': none
		// of them needs escaping.
		buf = v.t.AppendFormat(buf, time.RFC3339Nano)
	}
	return append(buf, `"}`...)
}

// AppendRowJSON appends r as a JSON array of wire values, or null for
// a nil row, as encoding/json writes a Row.
func AppendRowJSON(buf []byte, r Row) []byte {
	if r == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, v := range r {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = AppendJSON(buf, v)
	}
	return append(buf, ']')
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var w wireValue
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	switch w.K {
	case "null":
		*v = NewNull()
	case "string":
		*v = NewString(w.V)
	case "int":
		parsed, ok := Coerce(NewString(w.V), Int)
		if !ok {
			return fmt.Errorf("value: bad int payload %q", w.V)
		}
		*v = parsed
	case "float":
		parsed, ok := Coerce(NewString(w.V), Float)
		if !ok {
			return fmt.Errorf("value: bad float payload %q", w.V)
		}
		*v = parsed
	case "bool":
		parsed, ok := Coerce(NewString(w.V), Bool)
		if !ok {
			return fmt.Errorf("value: bad bool payload %q", w.V)
		}
		*v = parsed
	case "time":
		t, err := time.Parse(time.RFC3339Nano, w.V)
		if err != nil {
			return fmt.Errorf("value: bad time payload %q: %v", w.V, err)
		}
		*v = NewTime(t)
	default:
		return fmt.Errorf("value: unknown kind %q", w.K)
	}
	return nil
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string holds as they are: not
// a control character, `"`, `\`, `<`, `>` or `&`.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// appendJSONString appends s as a quoted JSON string, escaped as
// encoding/json escapes it: `"` and `\`, control characters as \n, \t
// and the like or \u00XX, `<`, `>` and `&` as \u00XX too, U+2028 and
// U+2029 as \u202X, and each byte of invalid UTF-8 as the escaped
// replacement character U+FFFD.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// jsonChunk is the length at which a JSONWriter hands its buffer to
// the underlying writer: a reply of any size holds one buffer of about
// this length, plus the largest single row.
const jsonChunk = 16 << 10

var jsonBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*jsonChunk)
	return &b
}}

// JSONWriter writes one JSON reply to an io.Writer through a pooled
// buffer, in chunks of about 16 KiB. Rows are appended by AppendJSON
// straight into the buffer; other parts are literal text, strings or
// encoding/json output. The first write error sticks and is returned
// by Flush and Close.
type JSONWriter struct {
	w   io.Writer
	buf *[]byte
	err error
}

// NewJSONWriter returns a writer onto w. Close it to write what is
// buffered and give the buffer back.
func NewJSONWriter(w io.Writer) *JSONWriter {
	return &JSONWriter{w: w, buf: jsonBufs.Get().(*[]byte)}
}

// Raw appends literal JSON text.
func (jw *JSONWriter) Raw(s string) { *jw.buf = append(*jw.buf, s...) }

// String appends s as a JSON string.
func (jw *JSONWriter) String(s string) { *jw.buf = appendJSONString(*jw.buf, s) }

// Strings appends ss as a JSON array of strings, or null when ss is nil.
func (jw *JSONWriter) Strings(ss []string) {
	if ss == nil {
		jw.Raw("null")
		return
	}
	jw.Raw("[")
	for i, s := range ss {
		if i > 0 {
			jw.Raw(",")
		}
		jw.String(s)
	}
	jw.Raw("]")
}

// Row appends r as AppendRowJSON does.
func (jw *JSONWriter) Row(r Row) {
	*jw.buf = AppendRowJSON(*jw.buf, r)
	jw.spill()
}

// Rows appends rows as a JSON array of rows, or null when rows is nil.
func (jw *JSONWriter) Rows(rows []Row) {
	if rows == nil {
		jw.Raw("null")
		return
	}
	jw.Raw("[")
	for i, r := range rows {
		if i > 0 {
			jw.Raw(",")
		}
		jw.Row(r)
	}
	jw.Raw("]")
}

// Marshal appends encoding/json's encoding of v.
func (jw *JSONWriter) Marshal(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		jw.fail(err)
		return
	}
	*jw.buf = append(*jw.buf, b...)
	jw.spill()
}

// spill writes the buffer out once it has grown past one chunk.
func (jw *JSONWriter) spill() {
	if len(*jw.buf) >= jsonChunk {
		jw.Flush()
	}
}

// Flush writes what is buffered to the underlying writer.
func (jw *JSONWriter) Flush() error {
	if len(*jw.buf) > 0 && jw.err == nil {
		if _, err := jw.w.Write(*jw.buf); err != nil {
			jw.fail(err)
		}
	}
	*jw.buf = (*jw.buf)[:0]
	return jw.err
}

func (jw *JSONWriter) fail(err error) {
	if jw.err == nil {
		jw.err = fmt.Errorf("value: writing JSON: %w", err)
	}
}

// Close flushes the writer and returns its buffer to the pool; the
// writer must not be used afterwards.
func (jw *JSONWriter) Close() error {
	err := jw.Flush()
	if cap(*jw.buf) <= 4*jsonChunk {
		jsonBufs.Put(jw.buf)
	}
	jw.buf = nil
	return err
}
