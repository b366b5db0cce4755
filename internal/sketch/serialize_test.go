package sketch

import (
	"bytes"
	"errors"
	"testing"

	"toplists/internal/snapshot"
)

// encodeDecode round-trips d through the snapshot codec.
func encodeDecode(t *testing.T, d Distinct) (Distinct, error) {
	t.Helper()
	var e snapshot.Encoder
	EncodeDistinct(&e, d)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return DecodeDistinct(snapshot.NewDecoder(buf.Bytes()))
}

func TestDistinctRoundTrip(t *testing.T) {
	ex, h := NewExact(), NewHLL(8)
	for i := uint64(0); i < 500; i++ {
		ex.Add(i * 7919)
		h.Add(i * 7919)
	}
	for _, d := range []Distinct{ex, h} {
		got, err := encodeDecode(t, d)
		if err != nil {
			t.Fatalf("%T: %v", d, err)
		}
		if got.Count() != d.Count() {
			t.Fatalf("%T: Count %v after round trip, want %v", d, got.Count(), d.Count())
		}
	}
}

// TestDecodeRejectsCorruptHLLRegister: a register above 65-p cannot come
// from Add, and Merge's word-wide maximum is only exact below 128, so
// decoding must refuse it rather than restore a counter that merges wrong.
func TestDecodeRejectsCorruptHLLRegister(t *testing.T) {
	for _, p := range []uint8{4, 11, 18} {
		h := NewHLL(p)
		h.regs[len(h.regs)/2] = maxRegister(p)
		if _, err := encodeDecode(t, h); err != nil {
			t.Fatalf("p=%d: register at the bound %d rejected: %v", p, maxRegister(p), err)
		}
		for _, bad := range []uint8{maxRegister(p) + 1, 0xFF} {
			h.regs[len(h.regs)/2] = bad
			if _, err := encodeDecode(t, h); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("p=%d: register %#x decoded with err %v, want ErrCorrupt", p, bad, err)
			}
		}
	}
}

// TestHLLRegisterBound: the item whose hash is all zeros below the index
// bits reaches maxRegister, and nothing can go past it.
func TestHLLRegisterBound(t *testing.T) {
	for _, p := range []uint8{4, 11, 18} {
		h := NewHLL(p)
		h.Add(unmix(0))
		if h.regs[0] != maxRegister(p) {
			t.Fatalf("p=%d: worst-case item stored %d, want %d", p, h.regs[0], maxRegister(p))
		}
	}
}

// unmix inverts mix: xor-shifts by 33 are involutions and the odd
// multipliers have inverses mod 2^64 (Newton's iteration).
func unmix(y uint64) uint64 {
	inv := func(c uint64) uint64 {
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	y ^= y >> 33
	y *= inv(0xc4ceb9fe1a85ec53)
	y ^= y >> 33
	y *= inv(0xff51afd7ed558ccd)
	y ^= y >> 33
	return y
}
