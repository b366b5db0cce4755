package traffic

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"toplists/internal/simrand"
)

// The execution model. A day's clients are split into contiguous LOGICAL
// shards (shardRanges). In sketch mode the shard count is sketchShards,
// fixed independently of the worker count because it shapes sketch output;
// in exact mode it is the worker count, and exact merges are order-free by
// construction, so it does not affect output. Each shard simulates its
// clients with private scratch state. Sinks implementing ShardedSink fold
// every shard's page loads and DNS queries into one ShardState per (sink,
// shard), in both modes; all other sinks — the plain sinks — observe the
// event stream itself.
//
// With one worker the shards run in ascending order on the engine
// goroutine and events stream straight into the plain sinks, unbuffered.
// With more, workers pull shards from a shared counter and each shard
// records its plain-sink events in a private buffer; no plain sink is
// touched from a worker goroutine. After the barrier the engine merges the
// shard states and replays the buffers in ascending shard order. Either way
// the plain sinks observe exactly the serial event stream and every
// ShardedSink merges its states in ascending shard order, so sink contents
// are byte-identical at every worker count: per-client RNG streams are
// derived by index (daySrc.At(i)), never shared, and the merge order is a
// pure function of client IDs.

// sketchShards is the number of logical shards whose summaries meet at the
// sketch-mode day barrier. Workers process logical shards and the barrier
// merges them in ascending shard order, so sketch output is byte-identical
// at any parallelism.
const sketchShards = 8

// Event kind tags for dayBuffer.kinds.
const (
	evPageLoad uint8 = iota
	evDNSQuery
)

// dayBuffer records, in emission order, the plain-sink events one shard
// produced. Events are stored by value in per-kind slices; kinds preserves
// the interleaving so replay reproduces the serial call order. Buffers are
// reused across days to keep steady-state allocations flat.
type dayBuffer struct {
	kinds   []uint8
	loads   []PageLoad
	queries []DNSQuery
}

func (b *dayBuffer) reset() {
	b.kinds = b.kinds[:0]
	b.loads = b.loads[:0]
	b.queries = b.queries[:0]
}

// replay feeds the buffered events to the sinks in emission order.
func (b *dayBuffer) replay(sinks []Sink) {
	li, qi := 0, 0
	for _, k := range b.kinds {
		switch k {
		case evPageLoad:
			pl := &b.loads[li]
			li++
			for _, s := range sinks {
				s.OnPageLoad(pl)
			}
		default:
			q := &b.queries[qi]
			qi++
			for _, s := range sinks {
				s.OnDNSQuery(q)
			}
		}
	}
}

// shardOut is where simulateClientDay emits one shard's events and per-site
// human request counts. Every event folds into the shard's states at once;
// plain-sink events go to buf when it is set (the worker pool) and
// straight to sinks otherwise (one worker).
type shardOut struct {
	sinks     []Sink
	buf       *dayBuffer
	humanReqs []int32
	states    []ShardState

	// nLoads and nQueries count this shard's events locally (plain fields,
	// no atomics), flushed to the shared counters once per shard: the per-
	// event cost of telemetry is two register increments, and the flushed
	// totals are identical at every worker count.
	nLoads, nQueries int64
}

// flushCounts adds the shard's event tallies to the engine counters and
// zeroes them for reuse.
func (o *shardOut) flushCounts(m *engineMetrics) {
	m.pageLoads.Add(o.nLoads)
	m.dnsQueries.Add(o.nQueries)
	o.nLoads, o.nQueries = 0, 0
}

func (o *shardOut) pageLoad(pl *PageLoad) {
	o.nLoads++
	for _, st := range o.states {
		st.OnPageLoad(pl)
	}
	if o.buf != nil {
		o.buf.kinds = append(o.buf.kinds, evPageLoad)
		o.buf.loads = append(o.buf.loads, *pl)
		return
	}
	for _, s := range o.sinks {
		s.OnPageLoad(pl)
	}
}

func (o *shardOut) dnsQuery(q *DNSQuery) {
	o.nQueries++
	for _, st := range o.states {
		st.OnDNSQuery(q)
	}
	if o.buf != nil {
		o.buf.kinds = append(o.buf.kinds, evDNSQuery)
		o.buf.queries = append(o.buf.queries, *q)
		return
	}
	for _, s := range o.sinks {
		s.OnDNSQuery(q)
	}
}

// logicalShard is the reusable per-day state of one logical shard.
type logicalShard struct {
	scratch   *clientScratch
	states    []ShardState // parallel to Engine.shardedSinks
	buf       dayBuffer    // plain-sink events, when workers buffer
	humanReqs []int32
}

// shardRange is a half-open range [Lo, Hi) of client indices.
type shardRange struct {
	Lo, Hi int
}

// shardRanges splits n clients into at most k contiguous ranges of
// near-equal size (the first n%k ranges are one larger). Only non-empty
// ranges are returned.
func shardRanges(n, k int) []shardRange {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]shardRange, 0, k)
	size, rem := n/k, n%k
	lo := 0
	for w := 0; w < k; w++ {
		hi := lo + size
		if w < rem {
			hi++
		}
		out = append(out, shardRange{lo, hi})
		lo = hi
	}
	return out
}

// workerCount resolves the configured Workers knob for the current
// population: 0 means one worker per available CPU, and the count never
// exceeds the number of clients (a worker with no clients is pointless).
func (e *Engine) workerCount() int {
	nw := e.Cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > len(e.Clients) {
		nw = len(e.Clients)
	}
	if nw < 1 {
		nw = 1
	}
	return nw
}

// splitSinks partitions the registered sinks once: sinks implementing
// ShardedSink aggregate through ShardStates; every other sink observes the
// event stream.
func (e *Engine) splitSinks() {
	if e.sinksSplit {
		return
	}
	e.sinksSplit = true
	for _, s := range e.sinks {
		if ss, ok := s.(ShardedSink); ok {
			e.shardedSinks = append(e.shardedSinks, ss)
		} else {
			e.plainSinks = append(e.plainSinks, s)
		}
	}
}

// ensureShards lazily builds (and retains across days) n logical shards.
func (e *Engine) ensureShards(n int) {
	for len(e.shards) < n {
		ls := &logicalShard{
			scratch:   newClientScratch(),
			humanReqs: make([]int32, e.W.NumSites()),
		}
		for _, ss := range e.shardedSinks {
			ls.states = append(ls.states, ss.NewShardState())
		}
		e.shards = append(e.shards, ls)
	}
}

// observeShardSkew records each shard's wall time and updates the
// worst-imbalance gauge: the percentage by which the slowest shard of the
// day exceeded the mean shard. All volatile — scheduling decides these.
func (e *Engine) observeShardSkew(shardNS []int64) {
	if len(shardNS) == 0 {
		return
	}
	var sum, slowest int64
	for _, ns := range shardNS {
		e.metrics.shardTime.Observe(time.Duration(ns))
		sum += ns
		if ns > slowest {
			slowest = ns
		}
	}
	if mean := sum / int64(len(shardNS)); mean > 0 {
		e.metrics.skewPctMax.Max(100 * (slowest - mean) / mean)
	}
}

// ShardPanicError reports a panic recovered inside one client shard: which
// shard, which clients it covered, the panic value, and the stack at the
// panic site. It propagates through RunContext instead of crashing the
// whole run.
type ShardPanicError struct {
	Day, Shard int
	// Lo, Hi is the shard's half-open client range.
	Lo, Hi int
	Value  any
	Stack  []byte
}

// Error implements error.
func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("traffic: day %d shard %d (clients [%d,%d)) panicked: %v\n%s",
		e.Day, e.Shard, e.Lo, e.Hi, e.Value, e.Stack)
}

// simulateShard runs one shard's client range, converting a panic into a
// *ShardPanicError and polling ctx between clients.
func (e *Engine) simulateShard(ctx context.Context, shard, d int, weekend bool,
	daySrc *simrand.Source, sc *clientScratch, out *shardOut, lo, hi int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &ShardPanicError{Day: d, Shard: shard, Lo: lo, Hi: hi, Value: v, Stack: debug.Stack()}
		}
	}()
	for i := lo; i < hi; i++ {
		if (i-lo)%64 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if e.testHook != nil {
			e.testHook(i, d)
		}
		e.simulateClientDay(&e.Clients[i], d, weekend, daySrc.At(i), sc, out)
	}
	return nil
}

// runDayClients simulates the day's clients over the logical shards and
// merges the shards into the sinks at the barrier. Every worker count
// produces byte-identical sink contents. On error (a canceled context or a
// panicked shard) nothing is merged or replayed and the first failing
// shard's error — in shard order, which is deterministic — is returned.
func (e *Engine) runDayClients(ctx context.Context, d int, weekend bool, daySrc *simrand.Source) error {
	nw := e.workerCount()
	e.metrics.workers.Set(int64(nw))
	e.splitSinks()
	k := nw
	if e.Cfg.Sketch.Enabled {
		k = sketchShards
	}
	shards := shardRanges(len(e.Clients), k)
	e.ensureShards(len(shards))
	nw = min(nw, len(shards))
	buffered := nw > 1 && len(e.plainSinks) > 0

	errs := make([]error, len(shards))
	shardNS := make([]int64, len(shards))
	runShard := func(si int) {
		ls := e.shards[si]
		clear(ls.humanReqs)
		out := shardOut{sinks: e.plainSinks, humanReqs: ls.humanReqs, states: ls.states}
		if buffered {
			ls.buf.reset()
			out.buf = &ls.buf
		}
		start := time.Now()
		errs[si] = e.simulateShard(ctx, si, d, weekend, daySrc, ls.scratch, &out, shards[si].Lo, shards[si].Hi)
		out.flushCounts(&e.metrics)
		dur := time.Since(start)
		shardNS[si] = int64(dur)
		e.metrics.tracer.Span("engine.shard", "engine", int64(si), start, dur)
	}
	if nw <= 1 {
		for si := range shards {
			runShard(si)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					si := int(next.Add(1)) - 1
					if si >= len(shards) {
						return
					}
					runShard(si)
				}
			}()
		}
		wg.Wait()
	}
	e.observeShardSkew(shardNS)

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// The barrier: ascending shard order, shard states into the sharded
	// sinks, buffered replay for the plain sinks.
	for si := range shards {
		ls := e.shards[si]
		for i, v := range ls.humanReqs {
			e.humanReqs[i] += v
		}
		for j, ss := range e.shardedSinks {
			ss.MergeShard(ls.states[j])
			ls.states[j].Reset()
		}
		if buffered {
			ls.buf.replay(e.plainSinks)
		}
	}
	return nil
}
