package core

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"toplists/internal/obs"
	"toplists/internal/snapshot"
	"toplists/internal/traffic"
)

// Checkpoint/restore: a study snapshotted at a day boundary and resumed
// in a fresh process renders byte-identically to a study that never
// stopped. The snapshot carries exactly the state that crosses days —
// the deterministic config (from which the world is regenerated rather
// than stored), the interner table, the engine's day cursor, the
// deterministic telemetry counters, and every sink/provider's cross-day
// tallies. Per-day accumulators are reset at each BeginDay and are empty
// at every day boundary by construction, so they never appear in a
// snapshot; per-day randomness is derived statelessly from the seed and
// the day index, so no RNG state is carried either.

// Component names, in their fixed container order.
const (
	compMeta     = "meta"
	compNames    = "names"
	compEngine   = "engine"
	compObs      = "obs"
	compPipeline = "cf"
	compChrome   = "chrome"
	compAlexa    = "alexa"
	compUmbrella = "umbrella"
	compSecrank  = "secrank"
	compTranco   = "tranco"
	compTrexa    = "trexa"
	// compEdges holds the extra (vantage, backend) pipelines' cross-day
	// state. It is always written: under the default 1-vantage, 1-backend
	// config it carries only the grid shape, so the container layout stays
	// uniform.
	compEdges = "edges"
)

const (
	metaSnapVersion   = 4
	engineSnapVersion = 1
	obsSnapVersion    = 1
)

// Snapshot writes a checkpoint of the study at its current day boundary.
// It holds the lifecycle read lock, so it can run concurrently with
// readers but never observes a mid-advancement (torn) day. An aborted
// study cannot be snapshotted: its sinks hold a partial day.
func (s *Study) Snapshot(w io.Writer) error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	return s.snapshotLocked(w)
}

// snapshotLocked serializes the study without taking the lifecycle lock.
// It is the write function handed to auto-checkpoint hooks, which run
// from the advance path with the write lock already held — that is what
// guarantees an auto-checkpoint always lands on a clean day boundary.
func (s *Study) snapshotLocked(w io.Writer) error {
	if err := s.Aborted(); err != nil {
		return fmt.Errorf("core: cannot snapshot: %w", err)
	}
	defer s.obs.Span("phase.snapshot").End()
	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return err
	}
	sw.Component(compMeta, s.snapshotMeta)
	sw.Component(compNames, s.World.Interner().Snapshot)
	sw.Component(compEngine, s.snapshotEngine)
	sw.Component(compObs, s.snapshotObs)
	sw.Component(compPipeline, s.Pipeline.Snapshot)
	sw.Component(compChrome, s.Telemetry.Snapshot)
	sw.Component(compAlexa, s.Alexa.Snapshot)
	sw.Component(compUmbrella, s.Umbrella.Snapshot)
	sw.Component(compSecrank, s.Secrank.Snapshot)
	sw.Component(compTranco, s.Tranco.Snapshot)
	sw.Component(compTrexa, s.Trexa.Snapshot)
	sw.Component(compEdges, s.Edges.Snapshot)
	return sw.Close()
}

// snapshotMeta persists every config field that determines study output.
// Workers is deliberately absent: worker count never changes output, and
// a resume may pick a different one (ResumeOptions.Workers).
func (s *Study) snapshotMeta(w io.Writer) error {
	var e snapshot.Encoder
	cfg := s.Cfg
	e.Uvarint(metaSnapVersion)
	e.Uvarint(cfg.Seed)
	e.Int(cfg.NumSites)
	e.Int(cfg.NumClients)
	e.Int(cfg.Days)
	e.Bool(cfg.TrackAllCombos)
	e.Int(cfg.EvalMagIdx)
	e.F64(cfg.FaultRate)
	e.Bool(cfg.Sketch.Enabled)
	e.Bool(cfg.Ablate.NoPrivateBrowsing)
	e.Bool(cfg.Ablate.NoOpenness)
	e.Bool(cfg.Ablate.NoWeightBoost)
	e.Bool(cfg.Ablate.NoPanelDistortion)
	e.Bool(cfg.Ablate.NoWorkSkew)
	e.Bool(cfg.Ablate.NoRevisits)
	e.Int(cfg.Vantages)
	e.Int(cfg.Backends)
	e.Uvarint(uint64(len(cfg.Sybils)))
	for _, sy := range cfg.Sybils {
		e.Varint(int64(sy.Site))
		e.Int(sy.Clients)
		e.F64(sy.LoadsPerDay)
		e.Int(sy.JoinDay)
	}
	_, err := e.WriteTo(w)
	return err
}

func decodeMeta(b []byte) (Config, error) {
	d := snapshot.NewDecoder(b)
	var cfg Config
	if v := d.Uvarint(); v != metaSnapVersion {
		if err := d.Err(); err != nil {
			return cfg, err
		}
		return cfg, fmt.Errorf("%w: meta payload v%d, this build reads v%d", snapshot.ErrVersion, v, metaSnapVersion)
	}
	cfg.Seed = d.Uvarint()
	cfg.NumSites = d.Int()
	cfg.NumClients = d.Int()
	cfg.Days = d.Int()
	cfg.TrackAllCombos = d.Bool()
	cfg.EvalMagIdx = d.Int()
	cfg.FaultRate = d.F64()
	cfg.Sketch.Enabled = d.Bool()
	cfg.Ablate = Ablations{
		NoPrivateBrowsing: d.Bool(),
		NoOpenness:        d.Bool(),
		NoWeightBoost:     d.Bool(),
		NoPanelDistortion: d.Bool(),
		NoWorkSkew:        d.Bool(),
		NoRevisits:        d.Bool(),
	}
	cfg.Vantages = d.Int()
	cfg.Backends = d.Int()
	n := d.Len(4)
	for i := 0; i < n; i++ {
		cfg.Sybils = append(cfg.Sybils, traffic.SybilSpec{
			Site:        int32(d.Varint()),
			Clients:     d.Int(),
			LoadsPerDay: d.F64(),
			JoinDay:     d.Int(),
		})
	}
	if err := d.Finish(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func (s *Study) snapshotEngine(w io.Writer) error {
	var e snapshot.Encoder
	e.Uvarint(engineSnapVersion)
	e.Int(s.Engine.Day())
	_, err := e.WriteTo(w)
	return err
}

// snapshotObs persists the deterministic (non-volatile) counters, which
// are pure functions of (seed, config, days advanced). Restoring them by
// delta makes a resumed run's final counter totals match a straight
// run's. Gauges are not persisted: plain deterministic gauges are set by
// computations (the probe sweep) that re-run on demand, and gauge
// functions read live state.
func (s *Study) snapshotObs(w io.Writer) error {
	rep := s.obs.Snapshot()
	keys := make([]string, 0, len(rep.Counters))
	for k := range rep.Counters {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var e snapshot.Encoder
	e.Uvarint(obsSnapVersion)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.Varint(rep.Counters[k])
	}
	_, err := e.WriteTo(w)
	return err
}

func restoreObs(reg *obs.Registry, b []byte) error {
	d := snapshot.NewDecoder(b)
	if v := d.Uvarint(); v != obsSnapVersion {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("%w: obs payload v%d, this build reads v%d", snapshot.ErrVersion, v, obsSnapVersion)
	}
	n := d.Len(2)
	for i := 0; i < n; i++ {
		name := d.String()
		v := d.Varint()
		if d.Err() != nil {
			return d.Err()
		}
		c := reg.Counter(name)
		c.Add(v - c.Value())
	}
	return d.Finish()
}

// ResumeOptions carries the per-process choices a restore may make
// differently from the checkpointing process; neither affects output.
type ResumeOptions struct {
	// Workers is the simulation/evaluation pool width (0 = one per CPU).
	Workers int
	// Obs is the telemetry registry to instrument the resumed study
	// against (nil = a fresh private registry). Deterministic counters
	// are restored onto it from the snapshot.
	Obs *obs.Registry
}

// Resume rebuilds a study from a checkpoint written by Study.Snapshot.
// The world is regenerated from the snapshotted config (cheaper and
// safer than persisting it), then every component is restored and
// cross-validated. On any error — bad magic, version skew, checksum or
// framing corruption, a config that fails Validate, inconsistent day
// counts — the partially restored
// study is closed and discarded, and nil is returned: no partial restore
// is ever observable. The resumed study continues exactly where the
// original stopped: the next AdvanceDay simulates day k, and a study
// restored at its final day is immediately finalized and readable.
func Resume(r io.Reader, opt ResumeOptions) (*Study, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}
	metaPayload, err := sr.Component(compMeta)
	if err != nil {
		return nil, err
	}
	cfg, err := decodeMeta(metaPayload)
	if err != nil {
		return nil, err
	}
	// A checksum-valid meta frame can still carry a configuration NewStudy
	// would panic on; reject it like any other damage.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: meta: %w", snapshot.ErrCorrupt, err)
	}
	cfg.Workers = opt.Workers
	cfg.Obs = opt.Obs

	s := NewStudy(cfg)
	if err := restoreInto(s, sr); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func restoreInto(s *Study, sr *snapshot.Reader) error {
	payload := func(name string) ([]byte, error) { return sr.Component(name) }
	reader := func(name string, fn func(io.Reader) error) error {
		p, err := payload(name)
		if err != nil {
			return err
		}
		if err := fn(bytes.NewReader(p)); err != nil {
			return fmt.Errorf("component %q: %w", name, err)
		}
		return nil
	}

	if err := reader(compNames, s.World.Interner().Restore); err != nil {
		return err
	}

	p, err := payload(compEngine)
	if err != nil {
		return err
	}
	d := snapshot.NewDecoder(p)
	if v := d.Uvarint(); v != engineSnapVersion {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("%w: engine payload v%d, this build reads v%d", snapshot.ErrVersion, v, engineSnapVersion)
	}
	day := d.Int()
	if err := d.Finish(); err != nil {
		return err
	}
	if day < 0 || day > s.Cfg.Days {
		return fmt.Errorf("%w: engine cursor %d out of range [0, %d]", snapshot.ErrCorrupt, day, s.Cfg.Days)
	}

	p, err = payload(compObs)
	if err != nil {
		return err
	}
	if err := restoreObs(s.obs, p); err != nil {
		return err
	}

	if err := reader(compPipeline, s.Pipeline.Restore); err != nil {
		return err
	}
	if err := reader(compChrome, s.Telemetry.Restore); err != nil {
		return err
	}
	if err := reader(compAlexa, s.Alexa.Restore); err != nil {
		return err
	}
	if err := reader(compUmbrella, s.Umbrella.Restore); err != nil {
		return err
	}
	if err := reader(compSecrank, s.Secrank.Restore); err != nil {
		return err
	}
	tab := s.World.Interner()
	if err := reader(compTranco, func(r io.Reader) error { return s.Tranco.Restore(r, tab) }); err != nil {
		return err
	}
	if err := reader(compTrexa, func(r io.Reader) error { return s.Trexa.Restore(r, tab) }); err != nil {
		return err
	}
	if err := reader(compEdges, s.Edges.Restore); err != nil {
		return err
	}
	if err := sr.End(); err != nil {
		return err
	}

	// Cross-validate: every day-indexed component must sit exactly at the
	// engine cursor, or the snapshot was assembled from mismatched states.
	for _, c := range []struct {
		name string
		days int
	}{
		{compPipeline, s.Pipeline.NumDays()},
		{compAlexa, s.Alexa.NumDays()},
		{compUmbrella, s.Umbrella.NumDays()},
		{compSecrank, s.Secrank.NumDays()},
		{compTranco, s.Tranco.NumDays()},
		{compTrexa, s.Trexa.NumDays()},
	} {
		if c.days != day {
			return fmt.Errorf("%w: component %q holds %d days, engine cursor %d", snapshot.ErrCorrupt, c.name, c.days, day)
		}
	}
	for _, p := range s.Edges.Extras() {
		if p.NumDays() != day {
			return fmt.Errorf("%w: edge pipeline %s/%s holds %d days, engine cursor %d",
				snapshot.ErrCorrupt, p.Vantage().Name, p.Backend(), p.NumDays(), day)
		}
	}
	if err := s.Engine.RestoreDay(day); err != nil {
		return err
	}
	s.publishLocked()
	if day == s.Cfg.Days {
		s.lifeMu.Lock()
		s.finalizeLocked()
		s.lifeMu.Unlock()
	}
	return nil
}
