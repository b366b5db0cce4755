package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeContainer emits a minimal valid container with one component
// carrying the given payload, through the given writer.
func writeContainer(payload []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		sw, err := NewWriter(w)
		if err != nil {
			return err
		}
		if err := sw.Component("data", func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		}); err != nil {
			return err
		}
		return sw.Close()
	}
}

func TestDirWriteRotatesGenerations(t *testing.T) {
	d, err := OpenDir(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		gen, n, err := d.Write(writeContainer([]byte(fmt.Sprintf("day %d", i))))
		if err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
		if gen.Seq != uint64(i) {
			t.Fatalf("Write %d: seq %d", i, gen.Seq)
		}
		if n <= 0 {
			t.Fatalf("Write %d: %d bytes", i, n)
		}
		if got := gen.Name(); got != fmt.Sprintf("study.snap.%06d", i) {
			t.Fatalf("Write %d: name %q", i, got)
		}
	}
	gens, err := d.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0].Seq != 1 || gens[2].Seq != 3 {
		t.Fatalf("Generations: %+v", gens)
	}
	latest, err := d.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 3 {
		t.Fatalf("Latest: %+v", latest)
	}
	// The directory holds the generations and nothing else: no pointer
	// file, no temp litter.
	entries, err := os.ReadDir(d.path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseGen(e.Name()); !ok {
			t.Fatalf("checkpoint dir holds %q besides its generations", e.Name())
		}
	}
	// Each generation is an independently valid container.
	for _, g := range gens {
		b, err := os.ReadFile(g.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(bytes.NewReader(b)); err != nil {
			t.Fatalf("generation %d fails Verify: %v", g.Seq, err)
		}
	}
}

func TestDirLatestPrefersNewestFileOverPointer(t *testing.T) {
	// Older builds kept a LATEST pointer file beside the generations. One
	// left behind, naming an older generation, must not steer the scan,
	// and Write and Prune must leave it as they found it.
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Write(writeContainer([]byte("one"))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Write(writeContainer([]byte("two"))); err != nil {
		t.Fatal(err)
	}
	ptr := filepath.Join(d.path, "LATEST")
	stale := []byte(genName(1) + "\n")
	if err := os.WriteFile(ptr, stale, 0o666); err != nil {
		t.Fatal(err)
	}
	latest, err := d.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 2 {
		t.Fatalf("Latest trusted the stale pointer: %+v", latest)
	}
	if gens, err := d.Generations(); err != nil || len(gens) != 2 {
		t.Fatalf("Generations = %+v, %v; want the two generation files", gens, err)
	}
	if gen, _, err := d.Write(writeContainer([]byte("three"))); err != nil || gen.Seq != 3 {
		t.Fatalf("Write after stale pointer = %+v, %v; want seq 3", gen, err)
	}
	if _, err := d.Prune(1); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(ptr); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("stale LATEST after Write and Prune = %q, %v; want %q untouched", got, err, stale)
	}
}

func TestDirWriteFailureLeavesPreviousGenerationUntouched(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := d.Write(writeContainer([]byte("good")))
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(gen.Path)
	if err != nil {
		t.Fatal(err)
	}
	// Make sure a same-second mtime can't mask an overwrite.
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(gen.Path, old, old); err != nil {
		t.Fatal(err)
	}
	before, err = os.Stat(gen.Path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("snapshot producer failed")
	if _, _, err := d.Write(func(w io.Writer) error {
		io.WriteString(w, "partial garbage") //nolint:errcheck // in-memory buffer path
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Write error = %v, want %v", err, boom)
	}

	after, err := os.Stat(gen.Path)
	if err != nil {
		t.Fatalf("previous generation gone after failed write: %v", err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatalf("previous generation touched by failed write: %v/%d -> %v/%d",
			before.ModTime(), before.Size(), after.ModTime(), after.Size())
	}
	gens, err := d.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("failed write left extra generations: %+v", gens)
	}
	// No temp litter either: the failed write cleans up after itself.
	entries, err := os.ReadDir(d.path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("failed write left temp file %s", e.Name())
		}
	}
}

func TestDirPrune(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := d.Write(writeContainer([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	// A stale temp file (a crash mid-write) is swept too.
	stale := filepath.Join(d.path, tmpPrefix+"study.snap.000099.123")
	if err := os.WriteFile(stale, []byte("torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	removed, err := d.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 || removed[0].Seq != 1 || removed[2].Seq != 3 {
		t.Fatalf("Prune removed %+v", removed)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp survived prune: %v", err)
	}
	gens, err := d.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0].Seq != 4 || gens[1].Seq != 5 {
		t.Fatalf("after prune: %+v", gens)
	}
	// retain below 1 still keeps the newest.
	if _, err := d.Prune(0); err != nil {
		t.Fatal(err)
	}
	latest, err := d.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 5 {
		t.Fatalf("Prune(0) removed the newest generation: %+v", latest)
	}
}

func TestDirIgnoresForeignAndTempFiles(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		tmpPrefix + "study.snap.000002.77", "study.snap.", "study.snap.xyz", "notes.txt", "LATEST",
	} {
		if err := os.WriteFile(filepath.Join(d.path, name), []byte("x"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Latest(); !errors.Is(err, ErrNoGenerations) {
		t.Fatalf("Latest over foreign files: %v", err)
	}
	gen, _, err := d.Write(writeContainer([]byte("real")))
	if err != nil {
		t.Fatal(err)
	}
	if gen.Seq != 1 {
		t.Fatalf("first real generation got seq %d", gen.Seq)
	}
}

func TestOpenDirRejectsFile(t *testing.T) {
	f := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(f, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(f); err == nil {
		t.Fatal("OpenDir accepted a regular file")
	}
}

func TestVerifyAndScan(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{"alpha": []byte("aaaa"), "beta": []byte("bb")}
	for _, name := range []string{"alpha", "beta"} {
		if err := sw.Component(name, func(w io.Writer) error {
			_, err := w.Write(payloads[name])
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if err := Verify(bytes.NewReader(good)); err != nil {
		t.Fatalf("Verify(good): %v", err)
	}
	frames, err := Scan(good)
	if err != nil {
		t.Fatalf("Scan(good): %v", err)
	}
	if len(frames) != 2 || frames[0].Name != "alpha" || frames[1].Name != "beta" {
		t.Fatalf("Scan frames: %+v", frames)
	}
	for i, f := range frames {
		want := payloads[f.Name]
		if got := good[f.PayloadOff : f.PayloadOff+f.PayloadLen]; !bytes.Equal(got, want) {
			t.Fatalf("frame %d payload %q, want %q", i, got, want)
		}
	}
	if frames[1].End+1 != len(good) { // one trailing end-marker byte
		t.Fatalf("frame end %d, container %d bytes", frames[1].End, len(good))
	}

	// Every truncation point fails both Verify and Scan.
	for cut := 0; cut < len(good); cut++ {
		if err := Verify(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("Verify accepted truncation at %d", cut)
		}
		if _, err := Scan(good[:cut]); err == nil {
			t.Fatalf("Scan accepted truncation at %d", cut)
		}
	}
	// Every single-byte corruption past the header fails (name, length,
	// payload, and CRC bytes are all covered by the frame checksum or the
	// structural checks).
	for off := len(magic) + 2; off < len(good)-1; off++ {
		b := bytes.Clone(good)
		b[off] ^= 0x10
		if err := Verify(bytes.NewReader(b)); err == nil {
			t.Fatalf("Verify accepted bit flip at %d", off)
		}
	}
	// Trailing garbage is rejected.
	if err := Verify(bytes.NewReader(append(bytes.Clone(good), 0x00))); err == nil {
		t.Fatal("Verify accepted trailing garbage")
	}
	if _, err := Scan(append(bytes.Clone(good), 0x00)); err == nil {
		t.Fatal("Scan accepted trailing garbage")
	}

	// FixCRC makes a deliberate payload edit scannable again.
	b := bytes.Clone(good)
	b[frames[0].PayloadOff] ^= 0xff
	if _, err := Scan(b); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Scan after payload edit: %v, want ErrChecksum", err)
	}
	FixCRC(b, frames[0])
	if _, err := Scan(b); err != nil {
		t.Fatalf("Scan after FixCRC: %v", err)
	}
	if err := Verify(bytes.NewReader(b)); err != nil {
		t.Fatalf("Verify after FixCRC: %v", err)
	}
}
