package chrome

import (
	"toplists/internal/sketch"
	"toplists/internal/traffic"
)

// Sketch mode. The telemetry aggregates are already mergeable — metric cells
// and origin counts are additive, visitor sets union — so the shard states
// mirror the collector's own accumulators and the barrier folds them in
// ascending shard order. The one representation change: per-(country, site)
// visitor counters become coarse HyperLogLogs, so a shard contributes a
// fixed 2^cruxHLLPrecision bytes per key instead of a set of client IDs.

// cruxHLLPrecision sizes the sketch-mode visitor counters. They only gate
// the CrUX privacy threshold, so 64 registers (64 B per key, near-exact
// linear counting at threshold scale) replace the exact ID sets.
const cruxHLLPrecision = 6

// SetSketch switches the collector to sketch-backed aggregation. Must be
// called before the simulation starts.
func (t *Telemetry) SetSketch() {
	t.sketched = true
}

// newDistinct builds a visitor counter for the current mode.
func (t *Telemetry) newDistinct() sketch.Distinct {
	if t.sketched {
		return sketch.NewHLL(cruxHLLPrecision)
	}
	return sketch.NewExact()
}

// telemetryShard accumulates one logical shard's telemetry. Cell slices are
// allocated lazily — a shard only pays for the (country, platform, metric)
// combinations its clients produce — and retained across days.
type telemetryShard struct {
	t               *Telemetry
	cells           [][]float64
	originCompleted map[originKey]float64
	countryVisitors map[int64]sketch.Distinct
	pool            []sketch.Distinct
}

// NewShardState implements traffic.ShardedSink.
func (t *Telemetry) NewShardState() traffic.ShardState {
	return &telemetryShard{
		t:               t,
		cells:           make([][]float64, len(t.cells)),
		originCompleted: make(map[originKey]float64),
		countryVisitors: make(map[int64]sketch.Distinct),
	}
}

func (sh *telemetryShard) cell(i int) []float64 {
	c := sh.cells[i]
	if c == nil {
		c = make([]float64, sh.t.w.NumSites())
		sh.cells[i] = c
	}
	return c
}

// OnPageLoad implements traffic.ShardState, mirroring the exact path's
// filter and contributions with shard-local targets.
func (sh *telemetryShard) OnPageLoad(pl *traffic.PageLoad) {
	c := pl.Client
	if !c.ChromeSync || pl.Private {
		return
	}
	if sh.t.w.Site(pl.Site).NonPublic {
		return
	}
	sh.cell(cellKey(c.Country, c.Platform, InitiatedPageLoads))[pl.Site]++
	if pl.Completed {
		sh.cell(cellKey(c.Country, c.Platform, CompletedPageLoads))[pl.Site]++
		sh.cell(cellKey(c.Country, c.Platform, TimeOnSite))[pl.Site] += pl.DwellSec

		sh.originCompleted[originKey{pl.Site, pl.SubIdx}]++
		vk := int64(c.Country)<<32 | int64(pl.Site)
		d, ok := sh.countryVisitors[vk]
		if !ok {
			if n := len(sh.pool); n > 0 {
				d = sh.pool[n-1]
				sh.pool = sh.pool[:n-1]
				d.Reset()
			} else {
				d = sh.t.newDistinct()
			}
			sh.countryVisitors[vk] = d
		}
		d.Add(uint64(c.ID))
	}
}

// OnDNSQuery implements traffic.ShardState; telemetry sees page loads only.
func (sh *telemetryShard) OnDNSQuery(*traffic.DNSQuery) {}

// Reset implements traffic.ShardState, keeping allocations for the next day.
func (sh *telemetryShard) Reset() {
	for _, c := range sh.cells {
		if c != nil {
			clear(c)
		}
	}
	clear(sh.originCompleted)
	for vk, d := range sh.countryVisitors {
		sh.pool = append(sh.pool, d)
		delete(sh.countryVisitors, vk)
	}
}

// memBytes returns the shard's logical footprint.
func (sh *telemetryShard) memBytes() int {
	var n int
	for _, c := range sh.cells {
		if c != nil {
			n += len(c) * 8
		}
	}
	n += len(sh.originCompleted) * 24
	n += len(sh.countryVisitors) * ((1 << cruxHLLPrecision) + 24)
	return n
}

// MergeShard implements traffic.ShardedSink: additive cells and origin
// counts, register-maxima visitor merges. Called in ascending shard order,
// so the floating-point cell sums are byte-identical at any worker count.
func (t *Telemetry) MergeShard(st traffic.ShardState) {
	sh := st.(*telemetryShard)
	t.shardMem += sh.memBytes()
	if t.shardMem > t.memPeak {
		t.memPeak = t.shardMem
	}
	for i, src := range sh.cells {
		if src == nil {
			continue
		}
		dst := t.cells[i]
		for s, v := range src {
			if v != 0 {
				dst[s] += v
			}
		}
	}
	for key, v := range sh.originCompleted {
		t.originCompleted[key] += v
	}
	for vk, d := range sh.countryVisitors {
		month, ok := t.countryVisitors[vk]
		if !ok {
			month = t.newDistinct()
			t.countryVisitors[vk] = month
		}
		month.Merge(d)
	}
}

// BeginDay implements traffic.Sink: the shard-footprint tally restarts each
// day (shard states are merged and reset at every day barrier).
func (t *Telemetry) BeginDay(day int, weekend bool) { t.shardMem = 0 }

// SketchMemPeak returns the high-water logical footprint of the shard states
// that met at a day barrier. A pure function of configuration and seed.
func (t *Telemetry) SketchMemPeak() int { return t.memPeak }
