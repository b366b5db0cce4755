package cfmetrics

import (
	"math"

	"toplists/internal/sketch"
	"toplists/internal/traffic"
)

// The aggregation path. Each logical traffic shard folds its page loads
// into a pipelineShard, and the day barrier merges the shards in ascending
// order into the pipeline's day state. The mode decides what the states
// hold:
//
//   - Exact mode: per combo, a dense per-site count array (count
//     aggregations) or a map of exact per-site distinct sets (unique
//     aggregations). Counts are integer-valued float64s and sets union, so
//     merges are exact in any order and the day lists are identical for
//     any split of the clients into shards. Bot batches fold straight into
//     the day state.
//   - Sketch mode: per combo, a space-saving candidate set plus a count-min
//     frequency sketch (count aggregations) or a space-saving set with
//     per-candidate HLLs (unique aggregations). Bot batches accumulate in
//     a dedicated bot state that EndDay merges last, so every summary's
//     adds precede its merges and the space-saving N/k bounds hold.
//
// A sketch-mode day list is the merged candidate set ranked by
// min(space-saving count, count-min estimate) — both are overestimates, so
// the minimum is the tighter one and is exact whenever the summaries never
// evicted — or by the per-candidate HLL estimate rounded to an integer, so
// small-count ties re-form exactly as in exact mode and the shared
// deterministic tiebreak applies to the same groups.

// pipelineShard is the accumulation state for one (logical shard,
// pipeline) pair, and doubles as the pipeline's own day and bot state.
// Exactly one of the exact and sketch field groups is populated.
type pipelineShard struct {
	p *Pipeline

	// Exact mode.
	counts   [][]float64               // per combo, count aggregations: site -> count
	distinct []map[int32]*sketch.Exact // per combo, unique aggregations: site -> set
	// empty reports that an exact state has received no merge since its
	// last Reset, so the next merge can adopt the source's summaries.
	empty bool

	// Sketch mode.
	ss  []*sketch.SpaceSaving  // per combo, count aggregations
	cm  []*sketch.CountMin     // per combo, count aggregations
	tkd []*sketch.TopKDistinct // per combo, unique aggregations
}

func (p *Pipeline) newPipelineShard() *pipelineShard {
	n := len(p.combos)
	sh := &pipelineShard{p: p, empty: true}
	if p.sketched {
		sh.ss = make([]*sketch.SpaceSaving, n)
		sh.cm = make([]*sketch.CountMin, n)
		sh.tkd = make([]*sketch.TopKDistinct, n)
	} else {
		sh.counts = make([][]float64, n)
		sh.distinct = make([]map[int32]*sketch.Exact, n)
	}
	for i, c := range p.combos {
		switch {
		case c.Agg == AggCount && p.sketched:
			sh.ss[i] = sketch.NewShardTopK()
			sh.cm[i] = sketch.NewShardCountMin()
		case c.Agg == AggCount:
			sh.counts[i] = make([]float64, p.w.NumSites())
		case p.sketched:
			sh.tkd[i] = sketch.NewShardTopKDistinct()
		default:
			sh.distinct[i] = make(map[int32]*sketch.Exact)
		}
	}
	return sh
}

// addCount credits n requests to a site under count combo i.
func (sh *pipelineShard) addCount(i int, site int32, n int) {
	if sh.p.sketched {
		sh.ss[i].Add(uint64(uint32(site)), uint64(n))
		sh.cm[i].Add(uint64(uint32(site)), uint64(n))
		return
	}
	sh.counts[i][site] += float64(n)
}

// addDistinct records a requestor key for a site under unique combo i.
func (sh *pipelineShard) addDistinct(i int, site int32, key uint64) {
	if sh.p.sketched {
		sh.tkd[i].Add(uint64(uint32(site)), key)
		return
	}
	d, ok := sh.distinct[i][site]
	if !ok {
		d = sketch.NewExact()
		sh.distinct[i][site] = d
	}
	d.Add(key)
}

// OnPageLoad implements traffic.ShardState.
func (sh *pipelineShard) OnPageLoad(pl *traffic.PageLoad) {
	if !sh.p.observes[pl.Site] || !sh.p.seesPage(pl) {
		return
	}
	for i, c := range sh.p.combos {
		n := filterContribution(c.Filter, pl)
		if n <= 0 {
			continue
		}
		switch c.Agg {
		case AggCount:
			sh.addCount(i, pl.Site, n)
		case AggUniqueIP:
			sh.addDistinct(i, pl.Site, uint64(pl.IP))
		default:
			sh.addDistinct(i, pl.Site, ipua(pl.IP, pl.Client.UA))
		}
	}
}

// OnDNSQuery implements traffic.ShardState; the log pipeline sees HTTP
// traffic only.
func (sh *pipelineShard) OnDNSQuery(*traffic.DNSQuery) {}

// onBotBatch folds a bot batch into the state.
func (sh *pipelineShard) onBotBatch(bb *traffic.BotBatch) {
	if !sh.p.observes[bb.Site] || !sh.p.seesBot(bb) {
		return
	}
	sh.empty = false
	for i, c := range sh.p.combos {
		n := botContribution(c.Filter, bb)
		if n <= 0 {
			continue
		}
		if c.Agg == AggCount {
			sh.addCount(i, bb.Site, n)
			continue
		}
		// All of the batch's IPs pass proportionally to the share of
		// requests passing the filter, at least one.
		k := len(bb.IPs) * n / bb.Requests
		if k < 1 {
			k = 1
		}
		for _, ip := range bb.IPs[:k] {
			key := uint64(ip)
			if c.Agg == AggUniqueIPUA {
				key = ipua(ip, botUA)
			}
			sh.addDistinct(i, bb.Site, key)
		}
	}
}

// merge folds another state's summaries into this one. An exact state
// that has received nothing since its last Reset adopts o's summaries by
// swap, handing o its own zeroed ones, instead of copying them.
func (sh *pipelineShard) merge(o *pipelineShard) {
	if !sh.p.sketched && sh.empty {
		sh.counts, o.counts = o.counts, sh.counts
		sh.distinct, o.distinct = o.distinct, sh.distinct
		sh.empty = false
		return
	}
	sh.empty = false
	for i, c := range sh.p.combos {
		switch count := c.Agg == AggCount; {
		case sh.p.sketched && count:
			sh.ss[i].Merge(o.ss[i], nil)
			sh.cm[i].Merge(o.cm[i])
		case sh.p.sketched:
			sh.tkd[i].Merge(o.tkd[i])
		case count:
			dst := sh.counts[i]
			for s, v := range o.counts[i] {
				if v != 0 {
					dst[s] += v
				}
			}
		default:
			// o is Reset after the merge, which drops its references
			// without touching the sets, so new sites adopt o's set.
			dst := sh.distinct[i]
			for s, d := range o.distinct[i] {
				if have, ok := dst[s]; ok {
					have.Merge(d)
				} else {
					dst[s] = d
				}
			}
		}
	}
}

// Reset implements traffic.ShardState.
func (sh *pipelineShard) Reset() {
	sh.empty = true
	for i, c := range sh.p.combos {
		switch count := c.Agg == AggCount; {
		case sh.p.sketched && count:
			sh.ss[i].Reset()
			sh.cm[i].Reset()
		case sh.p.sketched:
			sh.tkd[i].Reset()
		case count:
			clear(sh.counts[i])
		default:
			clear(sh.distinct[i])
		}
	}
}

// memBytes returns a sketch-mode state's logical footprint.
func (sh *pipelineShard) memBytes() int {
	var n int
	for i := range sh.p.combos {
		if sh.ss[i] != nil {
			n += sh.ss[i].MemBytes() + sh.cm[i].MemBytes()
		} else {
			n += sh.tkd[i].MemBytes()
		}
	}
	return n
}

// scored appends combo i's sites with a positive score to dst.
func (sh *pipelineShard) scored(i int, dst []scoredSite, entries []sketch.Entry) ([]scoredSite, []sketch.Entry) {
	switch count := sh.p.combos[i].Agg == AggCount; {
	case sh.p.sketched && count:
		entries = sh.ss[i].Entries(entries[:0])
		for _, e := range entries {
			v := e.Count
			if est := sh.cm[i].Estimate(e.Key); est < v {
				v = est
			}
			if v > 0 {
				dst = append(dst, scoredSite{int32(uint32(e.Key)), float64(v)})
			}
		}
		if b := sh.cm[i].ErrorBound(); b > sh.p.errBound {
			sh.p.errBound = b
		}
	case sh.p.sketched:
		entries = sh.tkd[i].Entries(entries[:0])
		for _, e := range entries {
			// Round the distinct estimate so equal-true-count tie groups
			// re-form and the shared tiebreak orders them exactly as in
			// exact mode.
			if v := math.Round(sh.tkd[i].DistinctAt(e.Slot)); v > 0 {
				dst = append(dst, scoredSite{int32(uint32(e.Key)), v})
			}
		}
	case count:
		for s, v := range sh.counts[i] {
			if v > 0 {
				dst = append(dst, scoredSite{int32(s), v})
			}
		}
	default:
		for s, d := range sh.distinct[i] {
			if v := d.Count(); v > 0 {
				dst = append(dst, scoredSite{s, v})
			}
		}
	}
	return dst, entries
}

// SetSketch switches the pipeline to sketch-backed aggregation. Must be
// called before the simulation starts.
func (p *Pipeline) SetSketch() {
	p.sketched = true
	p.dayState = p.newPipelineShard()
	p.botState = p.newPipelineShard()
}

// NewShardState implements traffic.ShardedSink.
func (p *Pipeline) NewShardState() traffic.ShardState {
	return p.newPipelineShard()
}

// MergeShard implements traffic.ShardedSink: fold one logical shard's
// summaries into the day state. Called in ascending shard order.
func (p *Pipeline) MergeShard(st traffic.ShardState) {
	sh := st.(*pipelineShard)
	if p.sketched {
		p.shardMem += sh.memBytes()
	}
	p.dayState.merge(sh)
}

// OnBotBatch implements traffic.Sink. Bot batches arrive on the engine
// goroutine after the day's barrier and accumulate in the bot state — in
// exact mode, the day state itself.
func (p *Pipeline) OnBotBatch(bb *traffic.BotBatch) {
	p.botState.onBotBatch(bb)
}

// EndDay implements traffic.Sink: it freezes the day's ranked lists from
// the merged day state.
func (p *Pipeline) EndDay(day int) {
	if p.sketched {
		p.dayState.merge(p.botState)
	}

	lists := make([][]int32, len(p.combos))
	var scored []scoredSite
	var entries []sketch.Entry
	for i := range p.combos {
		scored, entries = p.dayState.scored(i, scored[:0], entries)
		lists[i] = rankScored(scored)
	}
	p.days = append(p.days, lists)

	if p.sketched {
		if m := p.shardMem + p.dayState.memBytes() + p.botState.memBytes(); m > p.memPeak {
			p.memPeak = m
		}
		p.shardMem = 0
		p.botState.Reset()
	}
	p.dayState.Reset()
}

// SketchMemPeak returns the high-water logical footprint of all sketch
// state that met at a day barrier (shard states at merge time plus the
// day and bot summaries). A pure function of the configuration and seed,
// safe for deterministic gauges; 0 in exact mode.
func (p *Pipeline) SketchMemPeak() int { return p.memPeak }

// SketchErrorBound returns the largest count-min error bound (ceil(e·N/w))
// any day's merged frequency sketch reached.
func (p *Pipeline) SketchErrorBound() uint64 { return p.errBound }
