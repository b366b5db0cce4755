// Package providers implements the seven top lists the study evaluates:
// Alexa, Cisco Umbrella, Majestic, Secrank, Tranco, Trexa, and Google CrUX
// (Section 2). Each provider reconstructs its list from the slice of
// simulation events its real-world counterpart can observe — an extension
// panel, a corporate DNS resolver, a backlink crawl, a national resolver,
// amalgamation of other lists, or Chrome telemetry.
package providers

import (
	"sync"
	"sync/atomic"
	"time"

	"toplists/internal/obs"
	"toplists/internal/rank"
)

// List is a top-list provider's published output.
type List interface {
	// Name returns the provider name as used in the paper's tables.
	Name() string
	// Raw returns the list snapshot published for day d, keyed the way the
	// provider publishes it (registrable domains, FQDNs, or origins).
	Raw(day int) *rank.Ranking
	// Normalized returns the day's list normalized to PSL registrable
	// domains with min-rank grouping (Section 4.2), along with deviation
	// statistics for Table 2. nz must be bound to the table the list is
	// ranked over; its per-ID apex memo runs each name's PSL trie walk
	// once per study instead of once per (list, day).
	Normalized(day int, nz *rank.Normalizer) (*rank.Ranking, rank.NormalizeStats)
	// Bucketed reports whether the list publishes only rank-order
	// magnitudes (true only for CrUX), in which case Spearman rank
	// correlation is undefined against it (Section 4.4).
	Bucketed() bool
}

// NormMemo memoizes PSL-normalized list snapshots per (list, day). It is
// the caching hook shared by the Tranco/Trexa amalgam construction (which
// re-reads its inputs' normalized snapshots across a trailing window every
// day) and the evaluation's derived-artifact store. It is safe for
// concurrent use: each (list, day) is normalized at most once, with
// singleflight deduplication — a second requester for an in-flight key
// waits for the first computation instead of repeating it.
type NormMemo struct {
	// nz is the study-wide normalizer every snapshot goes through.
	nz *rank.Normalizer
	// cm, when set, counts hits/misses/waits and build times. Read under mu.
	cm *obs.CacheMetrics
	mu sync.Mutex
	m  map[normMemoKey]*normMemoEntry
}

type normMemoKey struct {
	list string
	day  int
}

type normMemoEntry struct {
	once  sync.Once
	done  atomic.Bool
	r     *rank.Ranking
	stats rank.NormalizeStats
}

// NewNormMemo builds an empty memo normalizing through nz, sharing its
// per-interned-name apex cache across every list and day.
func NewNormMemo(nz *rank.Normalizer) *NormMemo {
	return &NormMemo{nz: nz, m: make(map[normMemoKey]*normMemoEntry)}
}

// SetMetrics attaches cache instrumentation; nil detaches it.
func (m *NormMemo) SetMetrics(cm *obs.CacheMetrics) {
	m.mu.Lock()
	m.cm = cm
	m.mu.Unlock()
}

// Normalized returns the list's normalized day-d snapshot with its
// deviation statistics, computing it at most once per (list, day).
func (m *NormMemo) Normalized(l List, day int) (*rank.Ranking, rank.NormalizeStats) {
	key := normMemoKey{l.Name(), day}
	m.mu.Lock()
	cm := m.cm
	e, ok := m.m[key]
	if !ok {
		e = &normMemoEntry{}
		m.m[key] = e
	}
	m.mu.Unlock()
	if !ok {
		cm.Miss()
	} else {
		cm.Hit()
		if !e.done.Load() {
			cm.Wait()
		}
	}
	e.once.Do(func() {
		start := time.Now()
		defer func() {
			e.done.Store(true)
			cm.ObserveBuildSpan(start, time.Since(start))
		}()
		e.r, e.stats = l.Normalized(day, m.nz)
	})
	return e.r, e.stats
}

// InvalidateList drops every memoized day snapshot of the named list.
// The resident lifecycle uses it when a provider's published view is
// replaced wholesale (the month-to-date CrUX list is re-derived after a
// day advances); entries already handed to readers remain valid
// immutable rankings.
func (m *NormMemo) InvalidateList(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.m {
		if k.list == name {
			delete(m.m, k)
		}
	}
}

// monthNorm caches one normalization result for providers that publish a
// single snapshot for the whole month (Majestic, CrUX): every day's
// Normalized call returns the same list, so the grouping work runs once
// per normalizer instead of once per day. Safe for concurrent use.
type monthNorm struct {
	mu    sync.Mutex
	nz    *rank.Normalizer // the normalizer the cache was filled for
	r     *rank.Ranking
	stats rank.NormalizeStats
}

func (m *monthNorm) get(nz *rank.Normalizer, compute func() (*rank.Ranking, rank.NormalizeStats)) (*rank.Ranking, rank.NormalizeStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nz != nz {
		m.r, m.stats = compute()
		m.nz = nz
	}
	return m.r, m.stats
}

// The canonical provider ordering used in tables and figures.
var canonicalOrder = []string{
	"Alexa", "Majestic", "Secrank", "Tranco", "Trexa", "Umbrella", "CrUX",
}

// CanonicalOrder returns the provider display order used by the paper's
// tables.
func CanonicalOrder() []string {
	return append([]string(nil), canonicalOrder...)
}
