package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Binary row codec of the executor's spill files. A spill file never
// outlives its process, so the format carries no version. Layout:
//
//	u16 column count, then per value:
//	  u8 kind, then a kind-specific payload:
//	    Null   —
//	    String u32 length + bytes
//	    Int    u64 big-endian (two's complement)
//	    Float  u64 big-endian IEEE-754 bits
//	    Bool   u8
//	    Time   i64 big-endian Unix seconds + u32 big-endian nanoseconds
//	           (values are UTC)

// EncodeRow serializes r with the row codec.
func EncodeRow(r Row) []byte {
	buf := make([]byte, 2, 2+8*len(r))
	binary.BigEndian.PutUint16(buf, uint16(len(r)))
	var u64 [8]byte
	var u32 [4]byte
	for _, v := range r {
		buf = append(buf, byte(v.Kind()))
		switch v.Kind() {
		case Null:
		case String:
			s := v.Str()
			binary.BigEndian.PutUint32(u32[:], uint32(len(s)))
			buf = append(buf, u32[:]...)
			buf = append(buf, s...)
		case Int:
			binary.BigEndian.PutUint64(u64[:], uint64(v.Int()))
			buf = append(buf, u64[:]...)
		case Float:
			binary.BigEndian.PutUint64(u64[:], math.Float64bits(v.Float()))
			buf = append(buf, u64[:]...)
		case Bool:
			if v.Bool() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case Time:
			t := v.Time()
			binary.BigEndian.PutUint64(u64[:], uint64(t.Unix()))
			binary.BigEndian.PutUint32(u32[:], uint32(t.Nanosecond()))
			buf = append(buf, u64[:]...)
			buf = append(buf, u32[:]...)
		}
	}
	return buf
}

// DecodeRow deserializes a row encoded by EncodeRow.
func DecodeRow(b []byte) (Row, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("value: row codec: short buffer")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	row := make(Row, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("value: row codec: truncated kind")
		}
		k := Kind(b[0])
		b = b[1:]
		switch k {
		case Null:
			row = append(row, NewNull())
		case String:
			if len(b) < 4 {
				return nil, fmt.Errorf("value: row codec: truncated length")
			}
			l := int(binary.BigEndian.Uint32(b))
			b = b[4:]
			if len(b) < l {
				return nil, fmt.Errorf("value: row codec: truncated string")
			}
			row = append(row, NewString(string(b[:l])))
			b = b[l:]
		case Int:
			if len(b) < 8 {
				return nil, fmt.Errorf("value: row codec: truncated int")
			}
			row = append(row, NewInt(int64(binary.BigEndian.Uint64(b))))
			b = b[8:]
		case Float:
			if len(b) < 8 {
				return nil, fmt.Errorf("value: row codec: truncated float")
			}
			row = append(row, NewFloat(math.Float64frombits(binary.BigEndian.Uint64(b))))
			b = b[8:]
		case Bool:
			if len(b) < 1 {
				return nil, fmt.Errorf("value: row codec: truncated bool")
			}
			row = append(row, NewBool(b[0] != 0))
			b = b[1:]
		case Time:
			if len(b) < 12 {
				return nil, fmt.Errorf("value: row codec: truncated time")
			}
			sec, nsec := int64(binary.BigEndian.Uint64(b)), binary.BigEndian.Uint32(b[8:])
			if nsec >= 1e9 {
				return nil, fmt.Errorf("value: row codec: bad time nanoseconds %d", nsec)
			}
			row = append(row, NewTime(time.Unix(sec, int64(nsec))))
			b = b[12:]
		default:
			return nil, fmt.Errorf("value: row codec: unknown kind %d", k)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("value: row codec: %d trailing bytes", len(b))
	}
	return row, nil
}
