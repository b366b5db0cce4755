package traffic

import (
	"fmt"
	"hash/fnv"
	"testing"

	"toplists/internal/obs"
	"toplists/internal/sketch"
	"toplists/internal/world"
)

// hashSink folds every event field-by-field into a running hash, so two
// runs agree iff their sinks observed identical event streams in identical
// order.
type hashSink struct {
	h      uint64
	events int
	// flow counts the page loads and DNS queries among the events.
	flow int
}

func (s *hashSink) mix(vs ...uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	s.h = s.h*0x100000001b3 ^ h.Sum64()
	s.events++
}

func (s *hashSink) BeginDay(d int, weekend bool) {
	w := uint64(0)
	if weekend {
		w = 1
	}
	s.mix(1, uint64(d), w)
}

func (s *hashSink) EndDay(d int) { s.mix(2, uint64(d)) }

func (s *hashSink) OnPageLoad(pl *PageLoad) {
	s.flow++
	s.mix(3, uint64(pl.Day), uint64(pl.Second), uint64(pl.Site),
		uint64(pl.SubIdx), uint64(pl.Client.ID), uint64(pl.IP),
		b2u(pl.AtWork), b2u(pl.Private), b2u(pl.Root),
		uint64(pl.Subresources), uint64(pl.HTMLRequests),
		uint64(pl.RefererRequests), uint64(pl.Non200), uint64(pl.TLSConns),
		b2u(pl.Completed), uint64(int64(pl.DwellSec*1e6)))
}

func (s *hashSink) OnBotBatch(bb *BotBatch) {
	vs := []uint64{4, uint64(bb.Day), uint64(bb.Site), uint64(bb.Requests),
		uint64(bb.RootRequests), uint64(bb.HTMLRequests),
		uint64(bb.RefererRequests), uint64(bb.Non200), uint64(bb.TLSConns)}
	for _, ip := range bb.IPs {
		vs = append(vs, uint64(ip))
	}
	s.mix(vs...)
}

func (s *hashSink) OnDNSQuery(q *DNSQuery) {
	s.flow++
	s.mix(5, uint64(q.Day), uint64(q.Client.ID), uint64(q.IP),
		b2u(q.AtWork), uint64(q.Site), uint64(q.SubIdx), uint64(q.Infra))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// shardHashSink is a ShardedSink whose states hash their shard's events in
// arrival order. MergeShard folds each state's hash into merged, so the
// final value pins both every shard's event stream and the merge order;
// folded totals the page loads and DNS queries the states saw.
type shardHashSink struct {
	BaseSink
	merged hashSink
	folded int
}

type shardHashState struct{ hashSink }

func (s *shardHashState) Reset() { s.hashSink = hashSink{} }

func (s *shardHashSink) NewShardState() ShardState { return &shardHashState{} }

func (s *shardHashSink) MergeShard(st ShardState) {
	hs := st.(*shardHashState)
	s.merged.mix(hs.h, uint64(hs.events))
	s.folded += hs.flow
}

// engineRun is what engineHash observes of one engine run: a plain sink's
// event stream and a shardHashSink's merges.
type engineRun struct {
	hash   uint64 // plain sink's event-stream hash
	events int    // plain sink's event count
	flow   int    // page loads and DNS queries the plain sink saw
	merged uint64 // sharded sink's merge hash
	merges int    // sharded sink's MergeShard calls
	folded int    // page loads and DNS queries folded into its shard states
}

// engineHash runs a full engine with the given worker count and sketch
// config, with a plain hashSink and a shardHashSink registered side by
// side.
func engineHash(t testing.TB, seed uint64, clients, days, workers int, sk sketch.Config) engineRun {
	t.Helper()
	w := world.Generate(world.Config{Seed: seed, NumSites: 1200})
	e := NewEngine(w, Config{
		Seed: seed + 1, NumClients: clients, Days: days, Workers: workers, Sketch: sk,
	})
	hs, ss := &hashSink{}, &shardHashSink{}
	e.AddSink(hs)
	e.AddSink(ss)
	e.Run()
	return engineRun{hash: hs.h, events: hs.events, flow: hs.flow,
		merged: ss.merged.h, merges: ss.merged.events, folded: ss.folded}
}

// TestParallelMatchesSerial is the engine-level determinism oracle: at
// every worker count — including counts that exceed the population — a
// plain sink must observe the exact event stream of the one-worker exact
// run, in both modes. A sharded sink registered beside it is merged from
// shard states in both modes and must fold exactly the plain sink's page
// loads and DNS queries. In sketch mode its merge hash must not depend on
// the worker count either; in exact mode there is one shard per worker, so
// only the totals are comparable.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 42, 9000} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			want := engineHash(t, seed, 150, 3, 1, sketch.Config{})
			if want.events == 0 {
				t.Fatal("serial run produced no events")
			}
			check := func(mode string, workers int, got engineRun) {
				if got.events != want.events || got.hash != want.hash {
					t.Errorf("%s workers=%d: events=%d hash=%#x, want events=%d hash=%#x",
						mode, workers, got.events, got.hash, want.events, want.hash)
				}
				if got.merges == 0 {
					t.Fatalf("%s workers=%d: sharded sink saw no merges", mode, workers)
				}
				if got.folded != want.flow {
					t.Errorf("%s workers=%d: shard states folded %d events, plain sink saw %d",
						mode, workers, got.folded, want.flow)
				}
			}
			for _, workers := range []int{1, 2, 3, 8, 151, 1000} {
				check("exact", workers, engineHash(t, seed, 150, 3, workers, sketch.Config{}))
			}
			var wantMerged uint64
			for _, workers := range []int{1, 2, 4, 8} {
				got := engineHash(t, seed, 150, 3, workers, sketch.Config{Enabled: true})
				check("sketch", workers, got)
				if workers == 1 {
					wantMerged = got.merged
				} else if got.merged != wantMerged {
					t.Errorf("sketch workers=%d: merge hash %#x, want %#x", workers, got.merged, wantMerged)
				}
			}
		})
	}
}

// TestParallelRace exercises the concurrent shard path with enough workers
// and days that `go test -race` can observe any unsynchronized access to
// engine state, scratch buffers, or sinks.
func TestParallelRace(t *testing.T) {
	w := world.Generate(world.Config{Seed: 77, NumSites: 1000})
	e := NewEngine(w, Config{Seed: 78, NumClients: 400, Days: 4, Workers: 8})
	r := newRecorder(4)
	e.AddSink(r)
	e.Run()
	if len(r.violations) > 0 {
		t.Fatalf("violations: %v (x%d)", r.violations[0], len(r.violations))
	}
	if r.pageLoads == 0 || r.dnsQueries == 0 || r.botBatches == 0 {
		t.Fatal("parallel run produced no events")
	}
	if r.ended != 4 {
		t.Fatalf("EndDay calls = %d, want 4", r.ended)
	}
}

func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, k    int
		wantLen int
	}{
		{0, 4, 0}, {-3, 4, 0}, {10, 0, 0}, {10, -1, 0},
		{10, 1, 1}, {10, 3, 3}, {10, 10, 10}, {3, 10, 3}, {1, 1, 1},
	}
	for _, c := range cases {
		got := shardRanges(c.n, c.k)
		if len(got) != c.wantLen {
			t.Errorf("shardRanges(%d,%d) len = %d, want %d", c.n, c.k, len(got), c.wantLen)
			continue
		}
		// Ranges must tile [0, n) contiguously, ascending, all non-empty.
		next := 0
		for _, r := range got {
			if r.Lo != next || r.Hi <= r.Lo {
				t.Errorf("shardRanges(%d,%d) = %v: bad range %v", c.n, c.k, got, r)
				break
			}
			next = r.Hi
		}
		if c.wantLen > 0 && next != c.n {
			t.Errorf("shardRanges(%d,%d) covers [0,%d), want [0,%d)", c.n, c.k, next, c.n)
		}
	}
}

// TestRunWithNoSinks covers the zero-registered-sinks edge path: the engine
// must simulate the full day (both serially and in parallel) without
// anything to observe it.
func TestRunWithNoSinks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := world.Generate(world.Config{Seed: 21, NumSites: 600})
		e := NewEngine(w, Config{Seed: 22, NumClients: 50, Days: 2, Workers: workers})
		e.Run() // must not panic
	}
}

// TestRunWithNoClients covers the empty-population edge path (NumClients <
// 0 requests zero clients): only bot traffic remains, and day hooks still
// fire in order.
func TestRunWithNoClients(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		w := world.Generate(world.Config{Seed: 23, NumSites: 600})
		e := NewEngine(w, Config{Seed: 24, NumClients: -1, Days: 2, Workers: workers})
		if len(e.Clients) != 0 {
			t.Fatalf("NumClients=-1 built %d clients", len(e.Clients))
		}
		r := newRecorder(2)
		e.AddSink(r)
		e.Run()
		if r.pageLoads != 0 || r.dnsQueries != 0 {
			t.Errorf("workers=%d: client events from empty population: %d loads, %d queries",
				workers, r.pageLoads, r.dnsQueries)
		}
		if r.botBatches == 0 {
			t.Errorf("workers=%d: no bot traffic with empty population", workers)
		}
		if r.ended != 2 || len(r.days) != 2 {
			t.Errorf("workers=%d: day hooks: begin %d end %d", workers, len(r.days), r.ended)
		}
	}
}

// TestRunWithNoSinksAndNoClients combines both edge paths.
func TestRunWithNoSinksAndNoClients(t *testing.T) {
	w := world.Generate(world.Config{Seed: 25, NumSites: 400})
	e := NewEngine(w, Config{Seed: 26, NumClients: -1, Days: 1})
	e.Run() // must not panic
}

// TestSimulateClientDayAllocsFlat guards the hot path's allocation profile
// across the parallel refactor: once scratch and buffers are warm, a
// client-day must not allocate per event. The small constant budget covers
// the two event structs that escape into sink interface calls plus
// occasional growth of reused buffers. Telemetry is attached so the guard
// also covers the instrumented path: event counting and the per-shard
// flush must stay allocation-free.
func TestSimulateClientDayAllocsFlat(t *testing.T) {
	w := world.Generate(world.Config{Seed: 31, NumSites: 600})
	e := NewEngine(w, Config{Seed: 32, NumClients: 40, Days: 1})
	e.SetObs(obs.NewRegistry())
	sc := newClientScratch()
	var buf dayBuffer
	out := shardOut{buf: &buf, humanReqs: make([]int32, w.NumSites())}
	daySrc := e.root.Derive("day").At(0)

	run := func() {
		buf.reset()
		for i := range e.Clients {
			e.simulateClientDay(&e.Clients[i], 0, false, daySrc.At(i), sc, &out)
		}
		out.flushCounts(&e.metrics)
	}
	run() // warm scratch, maps, and buffer capacity
	if e.metrics.pageLoads.Value() == 0 {
		t.Fatal("instrumented run recorded no page loads")
	}

	// 40 client-days per run; daySrc.At allocates one Source per client.
	// Allow the per-client constants but nothing proportional to events
	// (a per-event regression would cost hundreds of allocs here).
	perRun := testing.AllocsPerRun(20, run)
	if perRun > float64(3*len(e.Clients)) {
		t.Errorf("allocs per 40-client day = %.0f, want <= %d (per-event allocation crept in?)",
			perRun, 3*len(e.Clients))
	}
}

// BenchmarkEngineParallel sweeps worker counts over a fixed engine day so
// the speedup (or single-core overhead) of the sharded path lands in the
// performance trajectory. The sketch rows split the day into the
// sketchShards logical shards instead of one per worker.
func BenchmarkEngineParallel(b *testing.B) {
	for _, mode := range engineModes {
		prefix := ""
		if mode.sk.Enabled {
			prefix = "sketch/"
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sworkers=%d", prefix, workers), func(b *testing.B) {
				w := world.Generate(world.Config{Seed: 1, NumSites: 5000})
				cfg := Config{Seed: 2, NumClients: 1000, Days: 28, Workers: workers, Sketch: mode.sk}
				e := NewEngine(w, cfg)
				e.AddSink(&BaseSink{})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e.Day() == e.Cfg.Days {
						b.StopTimer()
						e = NewEngine(w, cfg)
						e.AddSink(&BaseSink{})
						b.StartTimer()
					}
					e.RunDay(e.Day())
				}
			})
		}
	}
}
