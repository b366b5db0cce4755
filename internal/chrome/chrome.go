// Package chrome implements the Chrome telemetry vantage point of Section 6:
// per-(country, platform) popularity metrics computed from the page loads of
// Chrome users who opted into history sync and usage-statistics reporting.
//
// Three client metrics are produced (Figure 6): initiated page loads,
// completed page loads, and total time on site. The public CrUX dataset
// (the list evaluated in Section 5) is derived from the same data: monthly
// completed page loads, keyed by web origin, subject to a per-country
// minimum-visitors privacy threshold, and published as rank-magnitude
// buckets only.
package chrome

import (
	"toplists/internal/rank"
	"toplists/internal/sketch"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// TelemetryMetric is one of the three client-side popularity metrics.
type TelemetryMetric uint8

// The metrics of Figure 6.
const (
	InitiatedPageLoads TelemetryMetric = iota
	CompletedPageLoads
	TimeOnSite
	NumTelemetryMetrics = 3
)

// String implements fmt.Stringer.
func (m TelemetryMetric) String() string {
	return [...]string{"Initiated Pageloads", "Completed Pageloads", "Time On Site"}[m]
}

// AllTelemetryMetrics returns the three metrics in order.
func AllTelemetryMetrics() []TelemetryMetric {
	return []TelemetryMetric{InitiatedPageLoads, CompletedPageLoads, TimeOnSite}
}

// cellKey identifies a (country, platform, metric) accumulator slice.
func cellKey(c world.Country, p world.Platform, m TelemetryMetric) int {
	return (int(c)*world.NumPlatforms+int(p))*int(NumTelemetryMetrics) + int(m)
}

// originKey identifies a (site, subdomain) origin for CrUX accounting.
type originKey struct {
	site int32
	sub  uint8
}

// Telemetry is the Chrome data collector. It implements
// traffic.ShardedSink: page loads fold into per-shard states (see shard.go)
// that the day barrier merges into the month-spanning tally.
type Telemetry struct {
	traffic.BaseSink

	w *world.World

	tally

	// sketched selects sketch mode (see shard.go): visitor counters become
	// coarse HLLs. shardMem and memPeak are its footprint gauge.
	sketched bool
	shardMem int
	memPeak  int
}

// tally is a set of telemetry accumulators: the collector's month state,
// and in sketch mode each shard's day state.
type tally struct {
	// cells[cellKey] -> per-site accumulated metric value; a shard's cells
	// stay nil until credited.
	cells [][]float64

	// originCompleted accumulates completed page loads per origin for the
	// CrUX derivation.
	originCompleted map[originKey]float64
	// countryVisitors tracks distinct visitors per (country, site) for the
	// privacy threshold; pool holds reset counters for reuse.
	countryVisitors map[int64]sketch.Distinct
	pool            []sketch.Distinct
}

func newTally() tally {
	return tally{
		cells:           make([][]float64, world.NumCountries*world.NumPlatforms*int(NumTelemetryMetrics)),
		originCompleted: make(map[originKey]float64),
		countryVisitors: make(map[int64]sketch.Distinct),
	}
}

// NewTelemetry builds a collector for the world.
func NewTelemetry(w *world.World) *Telemetry {
	t := &Telemetry{w: w, tally: newTally()}
	for i := range t.cells {
		t.cells[i] = make([]float64, w.NumSites())
	}
	return t
}

// observe credits one observed page load to the tally: an initiated load
// and, if completed, a completed load, its dwell time, the origin's
// completed load, and the visitor.
func (tl *tally) observe(t *Telemetry, c world.Country, p world.Platform, site int32, sub uint8, client int32, completed bool, dwell float64) {
	tl.cell(t, cellKey(c, p, InitiatedPageLoads))[site]++
	if !completed {
		return
	}
	tl.cell(t, cellKey(c, p, CompletedPageLoads))[site]++
	tl.cell(t, cellKey(c, p, TimeOnSite))[site] += dwell

	tl.originCompleted[originKey{site, sub}]++
	vk := int64(c)<<32 | int64(site)
	d, ok := tl.countryVisitors[vk]
	if !ok {
		if n := len(tl.pool); n > 0 {
			d = tl.pool[n-1]
			tl.pool = tl.pool[:n-1]
			d.Reset()
		} else {
			d = t.newDistinct()
		}
		tl.countryVisitors[vk] = d
	}
	d.Add(uint64(client))
}

// cell returns cell i, allocating it on first use.
func (tl *tally) cell(t *Telemetry, i int) []float64 {
	if tl.cells[i] == nil {
		tl.cells[i] = make([]float64, t.w.NumSites())
	}
	return tl.cells[i]
}

// Ranking returns the month-aggregated ranked domain list for a country,
// platform, and metric. Sites with zero observed value are absent.
func (t *Telemetry) Ranking(c world.Country, p world.Platform, m TelemetryMetric) *rank.Ranking {
	vals := t.cells[cellKey(c, p, m)]
	scored := make([]rank.ScoredID, 0, 1024)
	for site, v := range vals {
		if v > 0 {
			scored = append(scored, rank.ScoredID{ID: t.w.DomainID(int32(site)), Score: v})
		}
	}
	return rank.FromScoredIDs(t.w.Interner(), scored, rank.TieHashed)
}

// DeriveCrux computes the public CrUX list: origins ordered by monthly
// completed page loads, filtered to origins of sites with at least
// minVisitors distinct visitors in some country. The returned ranking is
// the dataset's internal (unpublished) order; the public dataset carries
// only its rank-magnitude buckets, which a rank.Bucketer assigns from it.
// Origins are interned site by site, subdomain by subdomain, so the
// table's growth does not depend on map iteration order.
func (t *Telemetry) DeriveCrux(minVisitors int) *rank.Ranking {
	passes := make([]bool, t.w.NumSites())
	for vk, d := range t.countryVisitors {
		if int(d.Count()) >= minVisitors {
			passes[int32(vk&0xffffffff)] = true
		}
	}
	tab := t.w.Interner()
	scored := make([]rank.ScoredID, 0, len(t.originCompleted))
	for i, ok := range passes {
		if !ok {
			continue
		}
		site := t.w.Site(int32(i))
		scheme := "https://"
		if !site.HTTPS {
			scheme = "http://"
		}
		for sub := range site.Subdomains {
			v, ok := t.originCompleted[originKey{int32(i), uint8(sub)}]
			if !ok {
				continue
			}
			scored = append(scored, rank.ScoredID{ID: tab.Intern(scheme + site.Hostname(sub)), Score: v})
		}
	}
	return rank.FromScoredIDs(tab, scored, rank.TieHashed)
}
