package chrome

import (
	"toplists/internal/sketch"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// The aggregation path. Each logical traffic shard folds its page loads
// into a telemetryShard, and the day barrier merges the shards into the
// collector's month tally in ascending shard order — the serial event
// order. The mode decides what a shard holds:
//
//   - Exact mode: an ordered log of its observed loads, which MergeShard
//     credits to the month tally one by one. The float time-on-site sums
//     depend on addition order, and this keeps every one bit-identical to
//     folding the events serially, for any split of the clients into
//     shards.
//   - Sketch mode: a tally of its own, merged into the month's: additive
//     cells and origin counts, and per-(country, site) visitor counters
//     that become coarse HyperLogLogs, so a shard contributes a fixed
//     2^cruxHLLPrecision bytes per key instead of a set of client IDs.

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

// loggedLoad is one observed page load in an exact-mode shard's log.
type loggedLoad struct {
	site, client int32
	country      world.Country
	platform     world.Platform
	sub          uint8
	completed    bool
	dwell        float64
}

// telemetryShard accumulates one logical shard's telemetry: a load log in
// exact mode, a tally in sketch mode. Sketch-mode cells are allocated
// lazily — a shard only pays for the (country, platform, metric)
// combinations its clients produce — and retained across days.
type telemetryShard struct {
	t     *Telemetry
	loads []loggedLoad
	tally
}

// NewShardState implements traffic.ShardedSink.
func (t *Telemetry) NewShardState() traffic.ShardState {
	sh := &telemetryShard{t: t}
	if t.sketched {
		sh.tally = newTally()
	}
	return sh
}

// OnPageLoad implements traffic.ShardState. Only page loads from clients
// with ChromeSync are observed; private-mode loads never enter history,
// and loads of non-public domains are excluded (Section 6.1).
func (sh *telemetryShard) OnPageLoad(pl *traffic.PageLoad) {
	c := pl.Client
	if !c.ChromeSync || pl.Private {
		return
	}
	if sh.t.w.Site(pl.Site).NonPublic {
		return
	}
	if sh.t.sketched {
		sh.observe(sh.t, c.Country, c.Platform, pl.Site, pl.SubIdx, c.ID, pl.Completed, pl.DwellSec)
		return
	}
	sh.loads = append(sh.loads, loggedLoad{pl.Site, c.ID, c.Country, c.Platform, pl.SubIdx, pl.Completed, pl.DwellSec})
}

// OnDNSQuery implements traffic.ShardState; telemetry sees page loads only.
func (sh *telemetryShard) OnDNSQuery(*traffic.DNSQuery) {}

// Reset implements traffic.ShardState, keeping allocations for the next day.
func (sh *telemetryShard) Reset() {
	sh.loads = sh.loads[:0]
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

// memBytes returns a sketch-mode shard's logical footprint.
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

// MergeShard implements traffic.ShardedSink: logged loads are credited in
// order; a sketch tally adds its cells and origin counts and merges its
// visitor counters. Called in ascending shard order, so the floating-point
// cell sums are byte-identical at any worker count.
func (t *Telemetry) MergeShard(st traffic.ShardState) {
	sh := st.(*telemetryShard)
	for _, l := range sh.loads {
		t.observe(t, l.country, l.platform, l.site, l.sub, l.client, l.completed, l.dwell)
	}
	if !t.sketched {
		return
	}
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
// that met at a day barrier. A pure function of configuration and seed; 0
// in exact mode.
func (t *Telemetry) SketchMemPeak() int { return t.memPeak }
