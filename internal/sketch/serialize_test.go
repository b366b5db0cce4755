package sketch

import (
	"bytes"
	"errors"
	"testing"

	"toplists/internal/snapshot"
)

// encodeBytes returns d's canonical encoding.
func encodeBytes(t testing.TB, d Distinct) []byte {
	t.Helper()
	var e snapshot.Encoder
	EncodeDistinct(&e, d)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeDecode round-trips d through the snapshot codec.
func encodeDecode(t *testing.T, d Distinct) (Distinct, error) {
	t.Helper()
	return DecodeDistinct(snapshot.NewDecoder(encodeBytes(t, d)))
}

func TestDistinctRoundTrip(t *testing.T) {
	ex, h, sp := NewExact(), NewHLL(8), newSparseHLL(11)
	for i := uint64(0); i < 500; i++ {
		ex.Add(i * 7919)
		h.Add(i * 7919)
	}
	for i := uint64(0); i < 40; i++ {
		sp.Add(i * 7919)
	}
	for _, d := range []Distinct{ex, h, sp} {
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

// TestDecodeRejectsNonCanonical: bytes EncodeDistinct never writes are
// corruption, even where they would decode to a valid counter — otherwise
// two byte strings would stand for one state.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	for name, b := range map[string][]byte{
		"overlong tag":           {0x80, 0x00, 0x00},
		"overlong key count":     {distinctExact, 0x81, 0x00, 0x05},
		"repeated Exact key":     {distinctExact, 2, 5, 0},
		"descending Exact keys":  {distinctExact, 2, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"HLL register file long": append([]byte{distinctHLL, 4, 17}, make([]byte, 17)...),
	} {
		if _, err := DecodeDistinct(snapshot.NewDecoder(b)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecodeDistinct feeds arbitrary bytes to DecodeDistinct, the reader
// of checkpointed distinct counters. No input may panic; a rejected one
// must fail with snapshot.ErrCorrupt, and an accepted one (the payload
// consumed exactly) must re-encode to the same bytes. Allocation is
// bounded by the input: every length is checked against the bytes left.
func FuzzDecodeDistinct(f *testing.F) {
	ex, dense, sparse := NewExact(), NewHLL(6), newSparseHLL(11)
	for i := uint64(0); i < 30; i++ {
		ex.Add(i * 0x9e3779b97f4a7c15)
		dense.Add(i)
		sparse.Add(i)
	}
	for _, d := range []Distinct{NewExact(), ex, dense, newSparseHLL(4), sparse} {
		f.Add(encodeBytes(f, d))
	}
	f.Add([]byte{distinctExact, 2, 5, 0})
	f.Add([]byte{distinctHLL, 4, 16, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		dec := snapshot.NewDecoder(b)
		d, err := DecodeDistinct(dec)
		if err == nil {
			err = dec.Finish()
		}
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("rejected with %v, not ErrCorrupt", err)
			}
			return
		}
		if got := encodeBytes(t, d); !bytes.Equal(got, b) {
			t.Fatalf("accepted %x, re-encodes to %x", b, got)
		}
	})
}
