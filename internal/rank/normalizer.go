package rank

import (
	"sync"
	"sync/atomic"

	"toplists/internal/names"
	"toplists/internal/psl"
)

// Normalizer memoizes PSL registrable-domain resolution per interned name:
// the trie walk for each distinct name runs once per study, no matter how
// many (list, day) snapshots mention it. It is safe for concurrent use by
// every evaluation goroutine.
type Normalizer struct {
	tab  *names.Table
	list *psl.List

	// chunks is the ID-indexed apex cache, published as a grow-only slice
	// of fixed chunks so reads are lock-free while the table keeps
	// interning. Entries encode: 0 = not yet computed, 1 = no registrable
	// domain (dropped), otherwise apex ID + 2. Racing recomputes of the
	// same entry store the same value (Intern is idempotent), so a benign
	// duplicate walk is the only cost of contention.
	mu     sync.Mutex
	chunks atomic.Pointer[[]*apexChunk]
}

const (
	apexChunkBits = 12
	apexChunkSize = 1 << apexChunkBits

	apexUnknown = 0
	apexDropped = 1
	apexBias    = 2
)

type apexChunk [apexChunkSize]atomic.Uint32

// NewNormalizer binds a memoizing normalizer to an interner table and a
// public-suffix list.
func NewNormalizer(tab *names.Table, list *psl.List) *Normalizer {
	return &Normalizer{tab: tab, list: list}
}

// Table returns the bound interner table.
func (n *Normalizer) Table() *names.Table { return n.tab }

// Apex returns the interned registrable domain of id's name, or ok=false
// if the name has none (it is itself a public suffix). The name deviates
// from registrable form exactly when the returned apex differs from id.
func (n *Normalizer) Apex(id names.ID) (names.ID, bool) {
	if enc := n.load(id); enc != apexUnknown {
		if enc == apexDropped {
			return 0, false
		}
		return names.ID(enc - apexBias), true
	}
	etld1, ok := n.list.RegisteredDomain(n.tab.Lookup(id))
	enc := uint32(apexDropped)
	var apexID names.ID
	if ok {
		apexID = n.tab.Intern(etld1)
		enc = uint32(apexID) + apexBias
	}
	n.store(id, enc)
	return apexID, ok
}

func (n *Normalizer) load(id names.ID) uint32 {
	chunks := n.chunks.Load()
	if chunks == nil {
		return apexUnknown
	}
	ci := int(id >> apexChunkBits)
	if ci >= len(*chunks) {
		return apexUnknown
	}
	return (*chunks)[ci][id&(apexChunkSize-1)].Load()
}

func (n *Normalizer) store(id names.ID, enc uint32) {
	ci := int(id >> apexChunkBits)
	chunks := n.chunks.Load()
	if chunks == nil || ci >= len(*chunks) {
		n.mu.Lock()
		chunks = n.chunks.Load()
		if chunks == nil || ci >= len(*chunks) {
			var grown []*apexChunk
			if chunks != nil {
				grown = make([]*apexChunk, ci+1, 2*(ci+1))
				copy(grown, *chunks)
			} else {
				grown = make([]*apexChunk, ci+1)
			}
			for i := range grown {
				if grown[i] == nil {
					grown[i] = new(apexChunk)
				}
			}
			n.chunks.Store(&grown)
			chunks = &grown
		}
		n.mu.Unlock()
	}
	(*chunks)[ci][id&(apexChunkSize-1)].Store(enc)
}
