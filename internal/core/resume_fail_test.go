package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"toplists/internal/obs"
	"toplists/internal/snapshot"
)

// TestResumePartialFailureReleasesEverything drives Resume down every
// per-component error branch — frame by frame — and asserts the
// close-and-discard contract each time: no study escapes, no goroutine
// (listener) leaks, and the caller's obs registry stays fully usable by a
// later successful Resume. The damage is injected with the snapshot
// package's Scan/FixCRC helpers, so each case targets exactly one frame:
// a checksum failure (bit flip), a truncation at the frame boundary, and
// — for the engine frame — a CRC-valid payload carrying an out-of-range
// day cursor, which exercises the semantic rejection that fires after the
// obs counters were already delta-restored onto the caller's registry.
func TestResumePartialFailureReleasesEverything(t *testing.T) {
	s := NewStudy(checkpointCfg(61, 3, false))
	if err := s.AdvanceDay(context.Background()); err != nil {
		t.Fatal(err)
	}
	good := snap(t, s)
	s.Close()

	frames, err := snapshot.Scan(good)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(frames) != 12 {
		t.Fatalf("checkpoint has %d frames, expected 12 (update this test for new components)", len(frames))
	}

	reg := obs.NewRegistry()
	baseline := runtime.NumGoroutine()

	mustFail := func(t *testing.T, b []byte, what string) {
		t.Helper()
		r, err := Resume(bytes.NewReader(b), ResumeOptions{Workers: 1, Obs: reg})
		if err == nil {
			t.Fatalf("%s: Resume accepted damaged checkpoint", what)
		}
		if r != nil {
			t.Fatalf("%s: Resume returned a study alongside error %v", what, err)
		}
	}

	for _, f := range frames {
		t.Run(f.Name, func(t *testing.T) {
			// Checksum branch: one payload bit flipped.
			if f.PayloadLen > 0 {
				b := bytes.Clone(good)
				b[f.PayloadOff+f.PayloadLen/2] ^= 0x08
				mustFail(t, b, "bit flip in "+f.Name)
			}
			// Truncation branch: the file ends where this frame starts.
			mustFail(t, good[:f.Off], "truncation before "+f.Name)
			// And mid-frame, in the payload.
			mustFail(t, good[:f.PayloadOff+f.PayloadLen/2], "truncation inside "+f.Name)
		})
	}

	t.Run("engine-cursor-out-of-range", func(t *testing.T) {
		// A CRC-valid engine frame carrying day 50 (same varint width as
		// day 1, far past a 3-day study): every earlier frame (names, obs
		// — already delta-restored) decodes fine, then the semantic check
		// rejects. The registry must survive that.
		var engine *snapshot.Frame
		for i := range frames {
			if frames[i].Name == "engine" {
				engine = &frames[i]
			}
		}
		if engine == nil {
			t.Fatal("no engine frame")
		}
		b := bytes.Clone(good)
		// Payload layout: uvarint version, varint day. Re-encode day=50.
		var e snapshot.Encoder
		e.Uvarint(1) // engineSnapVersion
		e.Int(50)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != engine.PayloadLen {
			t.Fatalf("re-encoded engine payload %d bytes, frame holds %d", buf.Len(), engine.PayloadLen)
		}
		copy(b[engine.PayloadOff:], buf.Bytes())
		snapshot.FixCRC(b, *engine)
		mustFail(t, b, "engine cursor out of range")
	})

	t.Run("mismatched-day-counts", func(t *testing.T) {
		// Engine cursor 0 with day-1 provider state: the cross-validation
		// branch at the very end of restoreInto, after every component
		// restored cleanly. This is the deepest discard path there is.
		var engine *snapshot.Frame
		for i := range frames {
			if frames[i].Name == "engine" {
				engine = &frames[i]
			}
		}
		b := bytes.Clone(good)
		var e snapshot.Encoder
		e.Uvarint(1)
		e.Int(0)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		pad := engine.PayloadLen - buf.Len()
		if pad < 0 {
			t.Fatalf("re-encoded engine payload %d bytes > frame %d", buf.Len(), engine.PayloadLen)
		}
		copy(b[engine.PayloadOff:], buf.Bytes())
		if pad > 0 {
			// A shorter varint leaves stale tail bytes the decoder's
			// Finish would reject before cross-validation; skip then.
			t.Skip("day-0 encoding narrower than day-1; branch covered when widths match")
		}
		snapshot.FixCRC(b, *engine)
		mustFail(t, b, "cross-validation day mismatch")
	})

	// After every failure branch, the registry is not wedged: a clean
	// Resume against it succeeds, its study serves, and the names.interned
	// gauge reads the new study's interner (GaugeFunc re-registration
	// replaced the closures the discarded attempts left behind).
	r, err := Resume(bytes.NewReader(good), ResumeOptions{Workers: 1, Obs: reg})
	if err != nil {
		t.Fatalf("clean Resume after failures: %v", err)
	}
	if _, err := r.RankingFor("Alexa", 0); err != nil {
		t.Fatalf("recovered study does not serve: %v", err)
	}
	rep := reg.Snapshot()
	if got, want := rep.Gauges["names.interned"], int64(r.Names().Len()); got != want {
		t.Fatalf("names.interned gauge = %d, live interner = %d (stale closure?)", got, want)
	}
	r.Close()

	// No error branch may leak a goroutine: the virtual network is never
	// started during restore, and a failed Resume closes the partial study
	// — so the count settles back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d at baseline", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// metaFrame returns the checkpoint's meta frame.
func metaFrame(t *testing.T, b []byte) snapshot.Frame {
	t.Helper()
	frames, err := snapshot.Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if frames[0].Name != compMeta {
		t.Fatalf("first frame is %q, want %q", frames[0].Name, compMeta)
	}
	return frames[0]
}

// withSites rewrites the meta frame's NumSites to n, encoded minimally as
// the codec requires, and rebuilds the container around the resized
// payload with valid checksums, so only semantic validation can catch it.
// NumSites follows the version and seed uvarints.
func withSites(t *testing.T, b []byte, n int64) []byte {
	t.Helper()
	frames, err := snapshot.Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	var out bytes.Buffer
	sw, err := snapshot.NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		payload := b[f.PayloadOff : f.PayloadOff+f.PayloadLen]
		if f.Name == compMeta {
			off := 0
			for range 2 { // version, seed
				_, n := binary.Uvarint(payload[off:])
				off += n
			}
			_, width := binary.Varint(payload[off:])
			patched := binary.AppendVarint(bytes.Clone(payload[:off]), n)
			payload = append(patched, payload[off+width:]...)
		}
		if err := sw.Component(f.Name, func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestResumeRejectsInvalidMeta: a checksum-valid meta frame whose config
// fails Validate makes Resume return an error instead of panicking inside
// NewStudy or allocating for a universe it was never sized for, and the
// recovery supervisor skips that generation for the previous one. A meta
// frame of the previous payload version is rejected as version skew.
func TestResumeRejectsInvalidMeta(t *testing.T) {
	dir := checkpointedDir(t, checkpointCfg(67, 4, false), 2)
	newest, err := dir.Latest()
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(newest.Path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		sites   int64
		wantErr string
	}{
		{-1, "sites -1 negative"},
		{1 << 40, "sites 1099511627776 above the cap"},
	} {
		bad := withSites(t, good, tc.sites)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Resume(bytes.NewReader(bad), ResumeOptions{Workers: 1})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("Resume of NumSites = %d meta: %v, want ErrCorrupt naming the field", tc.sites, err)
		}
		if r != nil {
			t.Fatal("Resume returned a study alongside an error")
		}
		// Rejection decodes the meta frame and builds nothing: the heap
		// grows by less than the file's size plus a fixed slack (about
		// 5 KB were measured against a 26 KB file).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(bad))+256<<10 {
			t.Fatalf("Resume of NumSites = %d meta allocated %d bytes for a %d-byte checkpoint", tc.sites, grew, len(bad))
		}
	}
	bad := withSites(t, good, -1)

	old := bytes.Clone(good)
	meta := metaFrame(t, old)
	old[meta.PayloadOff] = metaSnapVersion - 1
	snapshot.FixCRC(old, meta)
	if _, err := Resume(bytes.NewReader(old), ResumeOptions{Workers: 1}); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("Resume of a v%d meta: %v, want ErrVersion", metaSnapVersion-1, err)
	}

	damage(t, newest.Path, func([]byte) []byte { return bad })
	reg := obs.NewRegistry()
	rec, err := Recover(dir, ResumeOptions{Workers: 1, Obs: reg}, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Study.Close()
	if rec.Gen.Seq != 1 || rec.Rejected != 1 || rec.Study.Day() != 1 {
		t.Fatalf("Recover = %+v at day %d, want fallback to generation 1", rec, rec.Study.Day())
	}
	if got := reg.Snapshot().Volatile["recovery.rejected"]; got < 1 {
		t.Fatalf("recovery.rejected = %d, want >= 1", got)
	}
}
