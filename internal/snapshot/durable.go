package snapshot

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Durable checkpoint storage: a Dir owns a directory of generation-numbered
// snapshot files and guarantees that a crash at any byte of any write —
// power loss included — never destroys the last good generation. The
// write-ahead ordering is:
//
//  1. the snapshot streams into a hidden temp file in the same directory;
//  2. the temp file is fsynced, so its bytes are on stable storage;
//  3. the temp file is renamed to its generation name (atomic on POSIX);
//  4. the parent directory is fsynced, so the rename itself is durable.
//
// A crash before (3) leaves only a temp file, which readers ignore; after
// (3) the generation is visible, and after (4) it survives power loss.
// Recovery scans generation files newest-first, so no pointer file names
// the newest one. A LATEST file left by an older build is a foreign file:
// scans ignore it, Write and Prune leave it alone, and it may be deleted.
// Torn or bit-rotted generations are caught by the container's per-frame
// CRCs (see Verify) and recovery falls back to the next older one.

// genPrefix names generation files: genPrefix + zero-padded sequence
// number, e.g. "study.snap.000017".
const genPrefix = "study.snap."

// genDigits is the zero-padded width of the sequence number. Sequences
// wider than this still round-trip (parsing is not width-limited); padding
// only keeps lexical and numeric order aligned for the common case.
const genDigits = 6

// tmpPrefix hides in-progress writes from generation scans.
const tmpPrefix = ".tmp."

// ErrNoGenerations is returned by Latest when the directory holds no
// completed generation.
var ErrNoGenerations = errors.New("snapshot: no generations in checkpoint directory")

// Gen identifies one completed generation file.
type Gen struct {
	// Seq is the generation sequence number, monotonically increasing
	// across the directory's lifetime.
	Seq uint64
	// Path is the absolute or dir-relative path of the generation file.
	Path string
}

// Name returns the generation's file name ("study.snap.000017").
func (g Gen) Name() string { return filepath.Base(g.Path) }

// Dir is a checkpoint directory holding generation-numbered snapshots.
// Methods are not internally locked: callers that write concurrently must
// serialize Write/Prune themselves (readers of completed generations need
// no coordination — a generation file, once named, is immutable).
type Dir struct {
	path string
}

// OpenDir opens (creating if needed) a checkpoint directory.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o777); err != nil {
		return nil, fmt.Errorf("snapshot: open checkpoint dir: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: open checkpoint dir: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("snapshot: checkpoint path %s is not a directory", path)
	}
	return &Dir{path: path}, nil
}

// genName formats a generation file name.
func genName(seq uint64) string {
	return genPrefix + fmt.Sprintf("%0*d", genDigits, seq)
}

// parseGen extracts the sequence from a generation file name, reporting
// ok=false for temp files and foreign names.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, genPrefix) {
		return 0, false
	}
	digits := name[len(genPrefix):]
	if digits == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Generations lists the directory's completed generations in ascending
// sequence order. Temp files and foreign files are ignored.
func (d *Dir) Generations() ([]Gen, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: scan checkpoint dir: %w", err)
	}
	var gens []Gen
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseGen(e.Name()); ok {
			gens = append(gens, Gen{Seq: seq, Path: filepath.Join(d.path, e.Name())})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Seq < gens[j].Seq })
	return gens, nil
}

// Latest returns the newest completed generation by sequence number, or
// ErrNoGenerations.
func (d *Dir) Latest() (Gen, error) {
	gens, err := d.Generations()
	if err != nil {
		return Gen{}, err
	}
	if len(gens) == 0 {
		return Gen{}, ErrNoGenerations
	}
	return gens[len(gens)-1], nil
}

// Write streams one new generation: fn produces the snapshot bytes, and
// the file becomes visible under its generation name only after those
// bytes — and the rename making them reachable — are fsynced to stable
// storage. On any error the temp file is removed and the directory's
// existing generations are untouched (their content and mtimes included).
func (d *Dir) Write(fn func(w io.Writer) error) (Gen, int64, error) {
	var nextSeq uint64 = 1
	if latest, err := d.Latest(); err == nil {
		nextSeq = latest.Seq + 1
	} else if !errors.Is(err, ErrNoGenerations) {
		return Gen{}, 0, err
	}

	tmp, err := os.CreateTemp(d.path, tmpPrefix+genName(nextSeq)+".*")
	if err != nil {
		return Gen{}, 0, fmt.Errorf("snapshot: create temp: %w", err)
	}
	tmpPath := tmp.Name()
	fail := func(err error) (Gen, int64, error) {
		tmp.Close()        //nolint:errcheck // already failing
		os.Remove(tmpPath) //nolint:errcheck // best-effort cleanup
		return Gen{}, 0, err
	}

	if err := fn(tmp); err != nil {
		return fail(err)
	}
	n, err := tmp.Seek(0, io.SeekEnd)
	if err != nil {
		return fail(fmt.Errorf("snapshot: %s: %w", tmpPath, err))
	}
	// The fsync before rename is the whole point: without it, the rename
	// can reach disk before the file's bytes do, and a crash leaves a
	// zero-length or torn "successful" generation.
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("snapshot: fsync %s: %w", tmpPath, err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("snapshot: close %s: %w", tmpPath, err))
	}
	gen := Gen{Seq: nextSeq, Path: filepath.Join(d.path, genName(nextSeq))}
	if err := os.Rename(tmpPath, gen.Path); err != nil {
		os.Remove(tmpPath) //nolint:errcheck // best-effort cleanup
		return Gen{}, 0, fmt.Errorf("snapshot: rename %s: %w", tmpPath, err)
	}
	if err := syncDir(d.path); err != nil {
		return Gen{}, 0, err
	}
	return gen, n, nil
}

// Prune removes the oldest generations beyond the newest retain (and any
// stale temp files), returning what it removed. retain < 1 is treated as
// 1: the newest generation is never pruned.
func (d *Dir) Prune(retain int) ([]Gen, error) {
	if retain < 1 {
		retain = 1
	}
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: scan checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), tmpPrefix) {
			os.Remove(filepath.Join(d.path, e.Name())) //nolint:errcheck // best-effort cleanup
		}
	}
	gens, err := d.Generations()
	if err != nil {
		return nil, err
	}
	if len(gens) <= retain {
		return nil, nil
	}
	victims := gens[:len(gens)-retain]
	for _, g := range victims {
		if err := os.Remove(g.Path); err != nil {
			return nil, fmt.Errorf("snapshot: prune %s: %w", g.Path, err)
		}
	}
	if err := syncDir(d.path); err != nil {
		return nil, err
	}
	return victims, nil
}

// syncDir fsyncs a directory so renames and removals within it are
// durable. On Linux (the deployment platform) this is the documented way
// to persist directory entries; filesystems that reject directory fsync
// with EINVAL (some network mounts) are tolerated, since rename atomicity
// still holds there.
func syncDir(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("snapshot: open dir for fsync: %w", err)
	}
	err = f.Sync()
	f.Close() //nolint:errcheck // read-only handle
	if err != nil && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("snapshot: fsync dir %s: %w", path, err)
	}
	return nil
}
