package cfmetrics

import (
	"fmt"
	"io"

	"toplists/internal/snapshot"
)

const pipelineSnapVersion = 1

// Snapshot writes the pipeline's cross-day state: the per-day ranked site
// lists for every tracked combo, plus the sketch error bound and memory
// peak. The day and bot states are reset at every EndDay, so a
// day-boundary checkpoint never has them in flight.
func (p *Pipeline) Snapshot(w io.Writer) error {
	var e snapshot.Encoder
	e.Uvarint(pipelineSnapVersion)
	e.Uvarint(uint64(len(p.combos)))
	e.Uvarint(uint64(len(p.days)))
	for _, day := range p.days {
		if len(day) != len(p.combos) {
			return fmt.Errorf("cfmetrics: day has %d combo lists, tracking %d", len(day), len(p.combos))
		}
		for _, ids := range day {
			e.Uvarint(uint64(len(ids)))
			for _, id := range ids {
				e.Varint(int64(id))
			}
		}
	}
	e.Uvarint(p.errBound)
	e.Int(p.memPeak)
	_, err := e.WriteTo(w)
	return err
}

// Restore replaces the pipeline's cross-day state from a Snapshot
// payload. The snapshot must track exactly the combos this pipeline was
// built with.
func (p *Pipeline) Restore(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := snapshot.NewDecoder(b)
	ver := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if ver != pipelineSnapVersion {
		return fmt.Errorf("%w: Pipeline payload v%d, this build reads v%d", snapshot.ErrVersion, ver, pipelineSnapVersion)
	}
	// nCombos cross-checks the pipeline's tracking config; it is not an
	// item count to be read from the payload, so no Len plausibility guard.
	nCombos := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	if nCombos != len(p.combos) {
		return fmt.Errorf("%w: Pipeline tracks %d combos, snapshot has %d", snapshot.ErrCorrupt, len(p.combos), nCombos)
	}
	nDays := d.Len(1)
	numSites := int64(p.w.NumSites())
	days := make([][][]int32, 0, nDays)
	for i := 0; i < nDays; i++ {
		day := make([][]int32, nCombos)
		for c := 0; c < nCombos; c++ {
			n := d.Len(1)
			ids := make([]int32, n)
			for j := 0; j < n; j++ {
				v := d.Varint()
				if d.Err() != nil {
					return d.Err()
				}
				if v < 0 || v >= numSites {
					return fmt.Errorf("%w: Pipeline day %d combo %d site %d out of range %d", snapshot.ErrCorrupt, i, c, v, numSites)
				}
				ids[j] = int32(v)
			}
			day[c] = ids
		}
		days = append(days, day)
	}
	errBound := d.Uvarint()
	memPeak := d.Int()
	if err := d.Finish(); err != nil {
		return err
	}
	p.days = days
	p.errBound = errBound
	p.memPeak = memPeak
	return nil
}
