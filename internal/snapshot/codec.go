package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Encoder builds a component payload from primitive values. Every write
// is canonical — varints for integers, fixed big-endian IEEE-754 bits for
// floats, length-prefixed bytes for strings — so that encoding the same
// logical state always yields the same bytes. That property is what makes
// Snapshot→Restore→Snapshot byte-identity testable.
type Encoder struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

// Varint appends a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends the fixed 8-byte big-endian IEEE-754 bit pattern. Bit-exact
// round-tripping (including -0 and NaN payloads) keeps restored float
// state byte-identical to the original.
func (e *Encoder) F64(v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	e.buf = append(e.buf, b[:]...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteTo flushes the accumulated payload.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.buf)
	return int64(n), err
}

// Len reports the accumulated payload size.
func (e *Encoder) Len() int { return len(e.buf) }

// Decoder consumes a component payload produced by Encoder. Errors are
// sticky: after the first decode failure every subsequent read returns
// the zero value, and Err/Finish report what went wrong, so decode
// sequences read linearly without per-field error plumbing.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

func (d *Decoder) fail(op string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, op, d.off)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an int-sized signed varint.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads a 0/1 byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("bool past end")
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("bad bool byte")
		return false
	}
	return v == 1
}

// F64 reads a fixed 8-byte IEEE-754 bit pattern.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("f64 past end")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string past end")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Bytes reads a length-prefixed byte slice (a copy).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("bytes past end")
		return nil
	}
	b := append([]byte(nil), d.b[d.off:d.off+int(n)]...)
	d.off += int(n)
	return b
}

// Len reads a uvarint-encoded length and validates it against a per-item
// minimum size, so a corrupted count cannot drive a huge allocation.
func (d *Decoder) Len(minItemBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minItemBytes < 1 {
		minItemBytes = 1
	}
	if n > uint64((len(d.b)-d.off)/minItemBytes) {
		d.fail("implausible length")
		return 0
	}
	return int(n)
}

// Offset reports how many payload bytes have been consumed.
func (d *Decoder) Offset() int { return d.off }

// Err reports the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish reports the sticky error, or ErrCorrupt if undecoded bytes
// remain — a payload must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}
