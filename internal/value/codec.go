package value

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Binary row codec of the executor's spill files and of the federation
// /batch wire. It carries every value exactly and has no version: a
// spill file never outlives its process, and both ends of /batch are
// this code. Layout:
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
//
// A frame is a uvarint length followed by that many bytes of one row.
// A stream of frames is read in counts the writer states first, as
// uvarints too. Each value, length and count has one encoding: a bool
// byte is 0 or 1, and a uvarint takes its fewest bytes.

// AppendRow appends r's row-codec encoding to buf.
func AppendRow(buf []byte, r Row) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.kind))
		switch v.kind {
		case String:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.s)))
			buf = append(buf, v.s...)
		case Int, Float:
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.i))
		case Bool:
			buf = append(buf, byte(v.i))
		case Time:
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.i))
			buf = binary.BigEndian.AppendUint32(buf, uint32(v.n))
		}
	}
	return buf
}

// payloadLen is each kind's payload length after its kind byte; a
// String's is that of its length prefix.
var payloadLen = [...]int{Null: 0, String: 4, Int: 8, Float: 8, Bool: 1, Time: 12}

// DecodeRow deserializes a row encoded by AppendRow.
func DecodeRow(b []byte) (Row, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("value: row codec: short buffer")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	row := make(Row, 0, min(n, len(b))) // a value takes at least a byte
	for i := range n {
		if len(b) == 0 || b[0] > byte(Time) || len(b) < 1+payloadLen[b[0]] {
			return nil, fmt.Errorf("value: row codec: value %d is cut or of unknown kind", i)
		}
		k, p := Kind(b[0]), b[1:1+payloadLen[b[0]]]
		b = b[1+len(p):]
		v := Value{kind: k}
		switch k {
		case String:
			l := int(binary.BigEndian.Uint32(p))
			if len(b) < l {
				return nil, fmt.Errorf("value: row codec: truncated string")
			}
			v.s, b = string(b[:l]), b[l:]
		case Int, Float:
			v.i = int64(binary.BigEndian.Uint64(p))
		case Bool:
			if p[0] > 1 {
				return nil, fmt.Errorf("value: row codec: bad bool byte %d", p[0])
			}
			v.i = int64(p[0])
		case Time:
			v.i, v.n = int64(binary.BigEndian.Uint64(p)), int32(binary.BigEndian.Uint32(p[8:]))
			if uint32(v.n) >= 1e9 {
				return nil, fmt.Errorf("value: row codec: bad time nanoseconds %d", uint32(v.n))
			}
		}
		row = append(row, v)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("value: row codec: %d trailing bytes", len(b))
	}
	return row, nil
}

// MaxFrame is the longest frame and the largest count ReadFrame and
// ReadCount accept, 64 MiB: the cap on a whole /batch body.
const MaxFrame = 64 << 20

// ErrFrameTooLong is ReadFrame's and ReadCount's error for a length or
// a count over MaxFrame.
var ErrFrameTooLong = errors.New("value: frame length or count over 64 MiB")

// AppendFrame appends r as one frame: its AppendRow length as a
// uvarint, then the AppendRow bytes.
func AppendFrame(buf []byte, r Row) []byte {
	start := len(buf)
	buf = AppendRow(buf, r)
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(buf)-start))
	buf = append(buf, hdr[:h]...)
	copy(buf[start+h:], buf[start:len(buf)-h])
	copy(buf[start:], hdr[:h])
	return buf
}

// ReadFrame reads one frame from r and decodes its row. The frame's
// bytes go to *scratch, which keeps its capacity for the next call. A
// length over MaxFrame is refused before anything is allocated, and
// the buffer grows only as bytes arrive, so a lying length costs about
// what was sent. An input that ends inside the frame, or before it, is
// an error wrapping io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, scratch *[]byte) (Row, error) {
	n, err := ReadCount(r)
	if err != nil {
		return nil, err
	}
	buf := (*scratch)[:0]
	for len(buf) < n {
		buf = slices.Grow(buf, min(n-len(buf), 64<<10))
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, fmt.Errorf("value: reading frame: %w", unexpected(err))
		}
	}
	*scratch = buf
	return DecodeRow(buf)
}

// ReadCount reads a uvarint of at most MaxFrame in its shortest
// encoding, the one binary.AppendUvarint writes: a frame's length, or
// a count of the frames that follow (each takes at least a byte).
func ReadCount(r *bufio.Reader) (int, error) {
	n := 0
	for shift := 0; shift < 28; shift += 7 {
		b, err := r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("value: reading frame: %w", unexpected(err))
		}
		if n |= int(b&0x7f) << shift; n > MaxFrame {
			break
		}
		if b < 0x80 {
			if b == 0 && shift > 0 {
				return 0, errors.New("value: reading frame: uvarint not in its shortest encoding")
			}
			return n, nil
		}
	}
	return 0, ErrFrameTooLong
}

// unexpected turns the end of input inside a frame stream into
// io.ErrUnexpectedEOF: every reader knows how many frames to expect.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
