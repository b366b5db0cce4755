package cfmetrics

import (
	"bytes"
	"fmt"
	"io"

	"toplists/internal/snapshot"
	"toplists/internal/world"
)

// PipelineSet is the full grid of edge-log pipelines for a study: one
// Pipeline per (vantage, backend) pair of the world's configuration. The
// primary pipeline at grid position (0, 0) — the first configured vantage
// watching the Cloudflare-style backend — is the paper's log pipeline and
// is wired into the study exactly as before; the remaining pipelines are
// extras the study appends after its original sinks, so a 1-vantage,
// 1-backend configuration has zero extras and an unchanged event path.
type PipelineSet struct {
	vantages []world.Vantage
	backends []world.Backend
	pipes    [][]*Pipeline // [vantage index][backend index]
}

// NewPipelineSet builds the pipeline grid for the world's configured
// vantages and backends. The primary pipeline tracks primaryCombos (the
// full combo study of the paper); every other pipeline tracks extraCombos
// (typically the seven canonical metrics).
func NewPipelineSet(w *world.World, primaryCombos, extraCombos []Combo) *PipelineSet {
	vantages := w.Vantages()
	backends := w.Backends()
	ps := &PipelineSet{
		vantages: vantages,
		backends: backends,
		pipes:    make([][]*Pipeline, len(vantages)),
	}
	for vi, v := range vantages {
		ps.pipes[vi] = make([]*Pipeline, len(backends))
		for bi, b := range backends {
			combos := extraCombos
			if vi == 0 && bi == 0 {
				combos = primaryCombos
			}
			ps.pipes[vi][bi] = NewEdgePipeline(w, combos, v, b)
		}
	}
	return ps
}

// Primary returns the paper's pipeline: the first vantage watching the
// Cloudflare-style backend.
func (ps *PipelineSet) Primary() *Pipeline { return ps.pipes[0][0] }

// Archives returns every pipeline's Archive, indexed by grid position.
func (ps *PipelineSet) Archives() [][]Archive {
	out := make([][]Archive, len(ps.pipes))
	for vi, row := range ps.pipes {
		out[vi] = make([]Archive, len(row))
		for bi, p := range row {
			out[vi][bi] = p.Archive()
		}
	}
	return out
}

// Index resolves a vantage name and backend slug to grid coordinates.
func (ps *PipelineSet) Index(vantage, backend string) (vi, bi int, ok bool) {
	vi, bi = -1, -1
	for i, v := range ps.vantages {
		if v.Name == vantage {
			vi = i
			break
		}
	}
	for i, b := range ps.backends {
		if b.String() == backend {
			bi = i
			break
		}
	}
	if vi < 0 || bi < 0 {
		return 0, 0, false
	}
	return vi, bi, true
}

// Extras returns every non-primary pipeline in canonical vantage-major
// order — the order they are appended as sinks and serialized in.
func (ps *PipelineSet) Extras() []*Pipeline {
	var out []*Pipeline
	for vi := range ps.pipes {
		for bi := range ps.pipes[vi] {
			if vi == 0 && bi == 0 {
				continue
			}
			out = append(out, ps.pipes[vi][bi])
		}
	}
	return out
}

// SetSketch switches every pipeline in the grid to sketch-backed
// aggregation. Must be called before the simulation starts.
func (ps *PipelineSet) SetSketch() {
	for vi := range ps.pipes {
		for bi := range ps.pipes[vi] {
			ps.pipes[vi][bi].SetSketch()
		}
	}
}

const pipelineSetSnapVersion = 1

// Snapshot writes the cross-day state of every extra pipeline, in
// canonical grid order, prefixed by the grid shape for cross-validation.
// The primary pipeline is serialized separately (its own checkpoint
// component, unchanged from the single-edge format).
func (ps *PipelineSet) Snapshot(w io.Writer) error {
	var e snapshot.Encoder
	e.Uvarint(pipelineSetSnapVersion)
	e.Uvarint(uint64(len(ps.vantages)))
	e.Uvarint(uint64(len(ps.backends)))
	for _, p := range ps.Extras() {
		var buf bytes.Buffer
		if err := p.Snapshot(&buf); err != nil {
			return fmt.Errorf("cfmetrics: edge pipeline %s/%s: %w", p.vantage.Name, p.backend, err)
		}
		e.Bytes(buf.Bytes())
	}
	_, err := e.WriteTo(w)
	return err
}

// Restore replaces the cross-day state of every extra pipeline from a
// Snapshot payload. The snapshot's grid shape must match this set's.
func (ps *PipelineSet) Restore(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := snapshot.NewDecoder(b)
	ver := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if ver != pipelineSetSnapVersion {
		return fmt.Errorf("%w: PipelineSet payload v%d, this build reads v%d", snapshot.ErrVersion, ver, pipelineSetSnapVersion)
	}
	nV := int(d.Uvarint())
	nB := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	if nV != len(ps.vantages) || nB != len(ps.backends) {
		return fmt.Errorf("%w: PipelineSet is %dx%d, snapshot has %dx%d",
			snapshot.ErrCorrupt, len(ps.vantages), len(ps.backends), nV, nB)
	}
	for _, p := range ps.Extras() {
		payload := d.Bytes()
		if err := d.Err(); err != nil {
			return err
		}
		if err := p.Restore(bytes.NewReader(payload)); err != nil {
			return fmt.Errorf("cfmetrics: edge pipeline %s/%s: %w", p.vantage.Name, p.backend, err)
		}
	}
	return d.Finish()
}
