package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

func writeSample(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	sw, err := NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Component("alpha", func(w io.Writer) error {
		var e Encoder
		e.Uvarint(42)
		e.String("hello")
		e.F64(math.Pi)
		_, err := e.WriteTo(w)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Component("beta", func(w io.Writer) error {
		var e Encoder
		e.Varint(-7)
		e.Bool(true)
		e.Bytes([]byte{1, 2, 3})
		_, err := e.WriteTo(w)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestRoundTrip(t *testing.T) {
	raw := writeSample(t)
	sr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sr.Component("alpha")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(p)
	if got := d.Uvarint(); got != 42 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("f64 = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	p, err = sr.Component("beta")
	if err != nil {
		t.Fatal(err)
	}
	d = NewDecoder(p)
	if got := d.Varint(); got != -7 {
		t.Errorf("varint = %d", got)
	}
	if !d.Bool() {
		t.Error("bool = false")
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := sr.End(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	a, b := writeSample(t), writeSample(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical snapshots differ byte-wise")
	}
}

func TestBadMagic(t *testing.T) {
	raw := writeSample(t)
	raw[0] ^= 0xff
	if _, err := NewReader(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	// Empty file is also a magic failure, not a panic.
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty file err = %v, want ErrBadMagic", err)
	}
}

func TestVersionSkew(t *testing.T) {
	raw := writeSample(t)
	binary.BigEndian.PutUint16(raw[8:], Version+1)
	_, err := NewReader(bytes.NewReader(raw))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestChecksumCorruption(t *testing.T) {
	raw := writeSample(t)
	// Flip one bit in every single byte position after the header; each
	// corruption must surface as a checksum, corruption, or truncation
	// error — never a clean read.
	for i := 10; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		sr, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		var p []byte
		if p, err = sr.Component("alpha"); err == nil {
			d := NewDecoder(p)
			d.Uvarint()
			_ = d.String()
			d.F64()
			if err = d.Finish(); err == nil {
				if p, err = sr.Component("beta"); err == nil {
					d = NewDecoder(p)
					d.Varint()
					d.Bool()
					d.Bytes()
					if err = d.Finish(); err == nil {
						err = sr.End()
					}
				}
			}
		}
		if err == nil {
			t.Fatalf("bit flip at offset %d went undetected", i)
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("bit flip at offset %d: err = %v, want a snapshot sentinel", i, err)
		}
	}
}

func TestTruncation(t *testing.T) {
	raw := writeSample(t)
	for cut := 10; cut < len(raw); cut++ {
		sr, err := NewReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header err %v", cut, err)
		}
		if _, err = sr.Component("alpha"); err == nil {
			if _, err = sr.Component("beta"); err == nil {
				err = sr.End()
			}
		}
		if err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: err = %v, want a snapshot sentinel", cut, err)
		}
	}
}

func TestWrongComponentOrder(t *testing.T) {
	raw := writeSample(t)
	sr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sr.Component("beta")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTrailingGarbage(t *testing.T) {
	raw := append(writeSample(t), 0xde, 0xad)
	sr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = sr.Component("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err = sr.Component("beta"); err != nil {
		t.Fatal(err)
	}
	if err = sr.End(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("End = %v, want ErrCorrupt", err)
	}
}

func TestDecoderImplausibleLength(t *testing.T) {
	var e Encoder
	e.Uvarint(1 << 40) // claims a huge element count
	d := NewDecoder(append([]byte(nil), e.buf...))
	if n := d.Len(4); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", d.Err())
	}
}

// TestDecoderRejectsOverlongVarints: the decoder reads back exactly the
// minimal varints Encoder writes and rejects every longer spelling of the
// same value, so no two byte strings decode to one state.
func TestDecoderRejectsOverlongVarints(t *testing.T) {
	// overlong pads v's minimal uvarint with pad extra zero groups.
	overlong := func(v uint64, pad int) []byte {
		b := binary.AppendUvarint(nil, v)
		b[len(b)-1] |= 0x80
		for i := 1; i < pad; i++ {
			b = append(b, 0x80)
		}
		return append(b, 0x00)
	}
	for _, v := range []uint64{0, 1, 1 << 63} {
		var e Encoder
		e.Uvarint(v)
		if d := NewDecoder(e.buf); d.Uvarint() != v || d.Finish() != nil {
			t.Errorf("minimal uvarint %d does not round-trip: %v", v, d.Finish())
		}
		// Pad up to one group past the longest uvarint: 2^63's minimal
		// spelling is already that long, so its one overlong spelling is
		// the 11-byte one binary.Uvarint calls an overflow.
		for pad := 1; len(e.buf)+pad <= binary.MaxVarintLen64+1; pad++ {
			b := overlong(v, pad)
			if got, n := binary.Uvarint(b); len(b) <= binary.MaxVarintLen64 && (got != v || n != len(b)) {
				t.Fatalf("overlong(%d, %d) = %x is not a %d-byte spelling of %d", v, pad, b, len(b), v)
			}
			if d := NewDecoder(b); d.Uvarint() != 0 || !errors.Is(d.Err(), ErrCorrupt) {
				t.Errorf("Uvarint accepted %d spelled in %d bytes (%x)", v, len(b), b)
			}
			// The same bytes are the zig-zag spelling of a signed value.
			if d := NewDecoder(b); d.Varint() != 0 || !errors.Is(d.Err(), ErrCorrupt) {
				t.Errorf("Varint accepted %x", b)
			}
		}
	}
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64} {
		var e Encoder
		e.Varint(v)
		if d := NewDecoder(e.buf); d.Varint() != v || d.Finish() != nil {
			t.Errorf("minimal varint %d does not round-trip: %v", v, d.Finish())
		}
	}
}
