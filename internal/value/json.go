package value

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

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
		buf = strconv.AppendFloat(buf, v.f(), 'g', -1, 64)
	case Bool:
		buf = strconv.AppendBool(buf, v.i != 0)
	case Time:
		// RFC 3339 text is digits, signs, 'T', 'Z', ':' and '.': none
		// of them needs escaping.
		buf = v.Time().AppendFormat(buf, time.RFC3339Nano)
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

// UnmarshalJSON implements json.Unmarshaler. It reads the wire shape
// {"k":kind,"v":payload} that AppendJSON writes and accepts exactly
// what encoding/json accepts decoding it into a struct with string
// fields k and v (see decodeWire), without reflection.
func (v *Value) UnmarshalJSON(data []byte) error {
	var scratch [64]byte
	k, payload, err := decodeWire(data, scratch[:0])
	if err != nil {
		return err
	}
	switch string(k) {
	case "null":
		*v = NewNull()
	case "string":
		*v = NewString(string(payload))
	case "int":
		parsed, ok := Coerce(NewString(string(payload)), Int)
		if !ok {
			return fmt.Errorf("value: bad int payload %q", string(payload))
		}
		*v = parsed
	case "float":
		parsed, ok := Coerce(NewString(string(payload)), Float)
		if !ok {
			return fmt.Errorf("value: bad float payload %q", string(payload))
		}
		*v = parsed
	case "bool":
		parsed, ok := Coerce(NewString(string(payload)), Bool)
		if !ok {
			return fmt.Errorf("value: bad bool payload %q", string(payload))
		}
		*v = parsed
	case "time":
		t, err := time.Parse(time.RFC3339Nano, string(payload))
		if err != nil {
			return fmt.Errorf("value: bad time payload %q: %v", string(payload), err)
		}
		*v = NewTime(t)
	default:
		return fmt.Errorf("value: unknown kind %q", string(k))
	}
	return nil
}

// maxJSONDepth is encoding/json's limit on nested arrays and objects.
const maxJSONDepth = 10000

// decodeWire reads data as encoding/json reads it into a struct with
// string fields k and v, and returns the two fields' text. It is an
// error unless data is one JSON object, with only whitespace around
// it. A key matches a field case-insensitively ("K", or the Kelvin
// sign, is k) after unescaping; the last match wins; a null leaves the
// field as it was; any other non-string value of k or v is an error;
// other keys are skipped, but their values must be valid JSON. Strings
// are unescaped as encoding/json unescapes them, invalid UTF-8 and
// lone surrogates becoming U+FFFD. The text of an escaped string goes
// to scratch (or a new buffer); otherwise it aliases data.
func decodeWire(data, scratch []byte) (k, v []byte, err error) {
	d := jsonDecoder{data: data}
	d.space()
	if !d.consume('{') {
		return nil, nil, d.fail("wire value is not an object")
	}
	d.space()
	if !d.consume('}') {
		for {
			d.space()
			raw, escaped, err := d.str()
			if err != nil {
				return nil, nil, err
			}
			var key []byte
			if key = raw; escaped {
				var buf [16]byte
				key = unquote(buf[:0], raw)
			}
			isK, isV := bytes.EqualFold(key, []byte("k")), bytes.EqualFold(key, []byte("v"))
			d.space()
			if !d.consume(':') {
				return nil, nil, d.fail("expected ':' after object key")
			}
			d.space()
			switch {
			case !isK && !isV:
				if err := d.skip(1); err != nil {
					return nil, nil, err
				}
			case d.literal("null"):
			default:
				text, escaped, err := d.str()
				if err != nil {
					return nil, nil, err
				}
				if escaped {
					text = unquote(scratch, text)
					scratch = text[len(text):]
				}
				if isK {
					k = text
				} else {
					v = text
				}
			}
			d.space()
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return nil, nil, d.fail("expected ',' or '}' after object value")
			}
		}
	}
	d.space()
	if d.pos != len(d.data) {
		return nil, nil, d.fail("invalid character after top-level value")
	}
	return k, v, nil
}

// jsonDecoder walks JSON text as encoding/json's scanner does.
type jsonDecoder struct {
	data []byte
	pos  int
}

func (d *jsonDecoder) fail(msg string) error {
	return fmt.Errorf("value: decoding JSON at offset %d: %s", d.pos, msg)
}

// space skips JSON whitespace.
func (d *jsonDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips c if it comes next.
func (d *jsonDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// literal skips lit if it comes next.
func (d *jsonDecoder) literal(lit string) bool {
	if bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.pos += len(lit)
		return true
	}
	return false
}

// str reads a string and returns its text between the quotes, and
// whether it must be unquoted: it holds an escape or a non-ASCII byte.
func (d *jsonDecoder) str() (raw []byte, escaped bool, err error) {
	if !d.consume('"') {
		return nil, false, d.fail("expected string")
	}
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], escaped, nil
		case c < 0x20:
			return nil, false, d.fail("control character in string")
		case c == '\\':
			escaped = true
			if d.pos++; d.pos == len(d.data) {
				break
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				if _, ok := hex4(d.data[d.pos:]); !ok {
					return nil, false, d.fail("bad \\u escape")
				}
				d.pos += 4
			default:
				return nil, false, d.fail("bad escape")
			}
		default:
			escaped = escaped || c >= utf8.RuneSelf
			d.pos++
		}
	}
	return nil, false, d.fail("unexpected end of string")
}

// skip reads one value of any type, depth being the number of arrays
// and objects open around it.
func (d *jsonDecoder) skip(depth int) error {
	if d.pos == len(d.data) {
		return d.fail("unexpected end of JSON input")
	}
	switch c := d.data[d.pos]; {
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '{' || c == '[':
		if depth++; depth > maxJSONDepth {
			return d.fail("exceeded max depth")
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		d.pos++
		d.space()
		if d.consume(end) {
			return nil
		}
		for {
			d.space()
			if c == '{' {
				if _, _, err := d.str(); err != nil {
					return err
				}
				d.space()
				if !d.consume(':') {
					return d.fail("expected ':' after object key")
				}
				d.space()
			}
			if err := d.skip(depth); err != nil {
				return err
			}
			d.space()
			if d.consume(end) {
				return nil
			}
			if !d.consume(',') {
				return d.fail("expected ',' or end of array or object")
			}
		}
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	}
	return d.fail("invalid character looking for beginning of value")
}

// number reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *jsonDecoder) number() error {
	d.consume('-')
	if !d.consume('0') && d.digits() == 0 {
		return d.fail("bad number")
	}
	if d.consume('.') && d.digits() == 0 {
		return d.fail("bad number fraction")
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if d.digits() == 0 {
			return d.fail("bad number exponent")
		}
	}
	return nil
}

// digits skips a run of decimal digits and returns its length.
func (d *jsonDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// unquote appends the text of a string str has validated to dst, as
// encoding/json unescapes it: a surrogate pair becomes its rune, and a
// lone surrogate or a byte of invalid UTF-8 becomes U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch c = raw[i]; c {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r, _ := hex4(raw[i+1:])
				i += 5
				if utf16.IsSurrogate(r) {
					dec := unicode.ReplacementChar
					if len(raw) >= i+6 && raw[i] == '\\' && raw[i+1] == 'u' {
						if r2, ok := hex4(raw[i+2:]); ok {
							if dec = utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
								i += 6
							}
						}
					}
					r = dec
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, c)
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
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
