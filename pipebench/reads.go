package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"sync"
)

// readLists are the lists reads draw from, round-robin: every published
// list but CrUX, which re-derives its month-to-date list as days advance,
// so a past day's CrUX read is not expected to repeat byte for byte.
var readLists = []string{"Alexa", "Majestic", "Secrank", "Tranco", "Trexa", "Umbrella"}

// Read kinds of the mix.
const (
	readTop100  = iota // top 100 of a list (70% of reads)
	readTop1000        // top 1000 of a list (10%)
	readDiff           // day-over-day top-100 diff of a list (20%)
)

// readQuery is one read of the mix every workload uses.
type readQuery struct {
	kind int
	list string
	day  int
}

// drawRead draws the i-th read: its list round-robin, its kind from the
// mix, and its day uniformly among the published days.
func drawRead(rng *rand.Rand, i, published int) readQuery {
	q := readQuery{list: readLists[i%len(readLists)], day: rng.IntN(published)}
	switch p := rng.Float64(); {
	case p < 0.7:
		q.kind = readTop100
	case p < 0.8:
		q.kind = readTop1000
	default:
		q.kind = readDiff
	}
	return q
}

func (q readQuery) k() int {
	if q.kind == readTop1000 {
		return 1000
	}
	return 100
}

// from is the earlier day of a diff; day 0 diffs against itself.
func (q readQuery) from() int { return max(q.day-1, 0) }

// path is the toplistsd request for q. It also keys the identity check.
func (q readQuery) path() string {
	if q.kind == readDiff {
		return fmt.Sprintf("/v1/diff?list=%s&from=%d&to=%d&k=%d", q.list, q.from(), q.day, q.k())
	}
	return fmt.Sprintf("/v1/rankings/%s?day=%d&k=%d", q.list, q.day, q.k())
}

// identity checks that every response for one request is byte-identical
// each time it is read: a published day never changes.
type identity struct {
	mu   sync.Mutex
	seen map[string][sha256.Size]byte
}

func newIdentity() *identity {
	return &identity{seen: make(map[string][sha256.Size]byte)}
}

// check records body under key and reports whether it matches every
// earlier body recorded under key.
func (id *identity) check(key string, body []byte) bool {
	sum := sha256.Sum256(body)
	id.mu.Lock()
	defer id.mu.Unlock()
	prev, ok := id.seen[key]
	if !ok {
		id.seen[key] = sum
		return true
	}
	return prev == sum
}

// has reports whether a body was recorded under key.
func (id *identity) has(key string) bool {
	id.mu.Lock()
	defer id.mu.Unlock()
	_, ok := id.seen[key]
	return ok
}
