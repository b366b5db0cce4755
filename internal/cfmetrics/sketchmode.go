package cfmetrics

import (
	"math"

	"toplists/internal/sketch"
	"toplists/internal/traffic"
)

// Sketch mode. With SetSketch the pipeline stops keeping exact per-site
// state and aggregates through bounded mergeable summaries instead: each
// logical traffic shard accumulates, per tracked combo, a space-saving
// candidate set plus a count-min frequency sketch (count aggregations) or a
// space-saving set with per-candidate HLLs (unique aggregations). The day
// barrier merges shard summaries in canonical order; bot batches accumulate
// in a dedicated summary that EndDay merges last, so every summary's adds
// precede its merges and the space-saving N/k bounds hold.
//
// The published day list is the merged candidate set ranked by
// min(space-saving count, count-min estimate) — both are overestimates, so
// the minimum is the tighter one and is exact whenever the summaries never
// evicted — or by the per-candidate HLL estimate rounded to an integer, so
// small-count ties re-form exactly as on the exact path and the shared
// deterministic tiebreak applies to the same groups.

// pipelineShard is the bounded accumulation state for one (logical shard,
// pipeline) pair, and doubles as the pipeline's own day/bot state.
type pipelineShard struct {
	p   *Pipeline
	ss  []*sketch.SpaceSaving  // per combo, count aggregations
	cm  []*sketch.CountMin     // per combo, count aggregations
	tkd []*sketch.TopKDistinct // per combo, unique aggregations
}

func (p *Pipeline) newPipelineShard() *pipelineShard {
	sh := &pipelineShard{
		p:   p,
		ss:  make([]*sketch.SpaceSaving, len(p.combos)),
		cm:  make([]*sketch.CountMin, len(p.combos)),
		tkd: make([]*sketch.TopKDistinct, len(p.combos)),
	}
	for i, c := range p.combos {
		if c.Agg == AggCount {
			sh.ss[i] = sketch.NewShardTopK()
			sh.cm[i] = sketch.NewShardCountMin()
		} else {
			sh.tkd[i] = sketch.NewShardTopKDistinct()
		}
	}
	return sh
}

// OnPageLoad implements traffic.ShardState.
func (sh *pipelineShard) OnPageLoad(pl *traffic.PageLoad) {
	if !sh.p.observes[pl.Site] || !sh.p.seesPage(pl) {
		return
	}
	site := uint64(uint32(pl.Site))
	for i, c := range sh.p.combos {
		n := filterContribution(c.Filter, pl)
		if n <= 0 {
			continue
		}
		switch c.Agg {
		case AggCount:
			sh.ss[i].Add(site, uint64(n))
			sh.cm[i].Add(site, uint64(n))
		case AggUniqueIP:
			sh.tkd[i].Add(site, uint64(pl.IP))
		default:
			sh.tkd[i].Add(site, ipua(pl.IP, pl.Client.UA))
		}
	}
}

// OnDNSQuery implements traffic.ShardState; the log pipeline sees HTTP
// traffic only.
func (sh *pipelineShard) OnDNSQuery(*traffic.DNSQuery) {}

// onBotBatch folds a bot batch into the shard, mirroring the exact path's
// contribution rules.
func (sh *pipelineShard) onBotBatch(bb *traffic.BotBatch) {
	if !sh.p.observes[bb.Site] || !sh.p.seesBot(bb) {
		return
	}
	site := uint64(uint32(bb.Site))
	for i, c := range sh.p.combos {
		n := botContribution(c.Filter, bb)
		if n <= 0 {
			continue
		}
		switch c.Agg {
		case AggCount:
			sh.ss[i].Add(site, uint64(n))
			sh.cm[i].Add(site, uint64(n))
		default:
			k := len(bb.IPs) * n / bb.Requests
			if k < 1 {
				k = 1
			}
			for _, ip := range bb.IPs[:k] {
				key := uint64(ip)
				if c.Agg == AggUniqueIPUA {
					key = ipua(ip, botUA)
				}
				sh.tkd[i].Add(site, key)
			}
		}
	}
}

// merge folds another shard's summaries into this one.
func (sh *pipelineShard) merge(o *pipelineShard) {
	for i := range sh.p.combos {
		if sh.ss[i] != nil {
			sh.ss[i].Merge(o.ss[i], nil)
			sh.cm[i].Merge(o.cm[i])
		} else {
			sh.tkd[i].Merge(o.tkd[i])
		}
	}
}

// Reset implements traffic.ShardState.
func (sh *pipelineShard) Reset() {
	for i := range sh.p.combos {
		if sh.ss[i] != nil {
			sh.ss[i].Reset()
			sh.cm[i].Reset()
		} else {
			sh.tkd[i].Reset()
		}
	}
}

// memBytes returns the shard's logical footprint.
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

// SetSketch switches the pipeline to sketch-backed aggregation. Must be
// called before the simulation starts; the exact per-site state is released.
func (p *Pipeline) SetSketch() {
	p.sketched = true
	p.counts = nil
	p.distinct = nil
	p.dayState = p.newPipelineShard()
	p.botState = p.newPipelineShard()
}

// SketchEnabled reports whether the pipeline aggregates through sketches.
func (p *Pipeline) SketchEnabled() bool { return p.sketched }

// NewShardState implements traffic.ShardedSink.
func (p *Pipeline) NewShardState() traffic.ShardState {
	return p.newPipelineShard()
}

// MergeShard implements traffic.ShardedSink: fold one logical shard's
// summaries into the day state. Called in ascending shard order.
func (p *Pipeline) MergeShard(st traffic.ShardState) {
	sh := st.(*pipelineShard)
	p.shardMem += sh.memBytes()
	p.dayState.merge(sh)
}

// endDaySketch freezes the day's ranked lists from the merged summaries.
func (p *Pipeline) endDaySketch(day int) {
	p.dayState.merge(p.botState)

	lists := make([][]int32, len(p.combos))
	var entries []sketch.Entry
	for i, c := range p.combos {
		entries = entries[:0]
		var scored []scoredSite
		if c.Agg == AggCount {
			entries = p.dayState.ss[i].Entries(entries)
			for _, e := range entries {
				v := e.Count
				if est := p.dayState.cm[i].Estimate(e.Key); est < v {
					v = est
				}
				if v > 0 {
					scored = append(scored, scoredSite{int32(uint32(e.Key)), float64(v)})
				}
			}
			if b := p.dayState.cm[i].ErrorBound(); b > p.errBound {
				p.errBound = b
			}
		} else {
			entries = p.dayState.tkd[i].Entries(entries)
			for _, e := range entries {
				// Round the distinct estimate so equal-true-count tie
				// groups re-form and the shared tiebreak orders them
				// exactly as the exact path would.
				if v := math.Round(p.dayState.tkd[i].DistinctAt(e.Slot)); v > 0 {
					scored = append(scored, scoredSite{int32(uint32(e.Key)), v})
				}
			}
		}
		lists[i] = rankScored(scored)
	}
	p.days = append(p.days, lists)

	if m := p.shardMem + p.dayState.memBytes() + p.botState.memBytes(); m > p.memPeak {
		p.memPeak = m
	}
	p.shardMem = 0
	p.dayState.Reset()
	p.botState.Reset()
}

// SketchMemPeak returns the high-water logical footprint of all sketch
// state that met at a day barrier (shard states at merge time plus the
// day and bot summaries). A pure function of the configuration and seed,
// safe for deterministic gauges.
func (p *Pipeline) SketchMemPeak() int { return p.memPeak }

// SketchErrorBound returns the largest count-min error bound (ceil(e·N/w))
// any day's merged frequency sketch reached.
func (p *Pipeline) SketchErrorBound() uint64 { return p.errBound }
