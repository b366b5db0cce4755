package perfgate

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"toplists"
	"toplists/internal/names"
	"toplists/internal/rank"
	"toplists/internal/sketch"
	"toplists/internal/snapshot"
	"toplists/internal/stats"
	"toplists/internal/traffic"
	"toplists/internal/world"
)

// Benchmarks returns the pinned hot-path set the perf gate tracks. The
// names are part of the baseline file contract: renaming one here
// without regenerating BENCH_baseline.json fails the gate as "missing",
// which is the point — the set only changes deliberately.
//
// Sizes are scaled so each Setup stays under a second while the timed
// op is large enough to dominate harness overhead; the gate compares
// against a baseline measured at the same sizes, so absolute scale only
// needs to be representative, not paper-sized.
func Benchmarks() []Benchmark {
	return []Benchmark{
		// The machine-speed reference (see RefBenchmark): fixed work
		// whose true cost never changes, so any drift in its median is
		// the machine, not the code.
		{Name: RefBenchmark, Setup: setupRefSort},
		// engine.day pins n: engine construction amortizes inside run(n),
		// so a calibrated n would shift per-op cost between runs.
		{Name: "engine.day", Setup: setupEngineDay, Iters: 16},
		{Name: "renderall.warm", Setup: setupRenderAllWarm},
		{Name: "rank.topset", Setup: setupRankTopSet},
		{Name: "stats.jaccard", Setup: setupStatsJaccard},
		{Name: "sketch.merge", Setup: setupSketchMerge},
		{Name: "snapshot.encode", Setup: setupSnapshotEncode},
	}
}

// refSink defeats dead-code elimination of the reference workload.
var refSink int64

// setupRefSort is the reference workload: allocate and sort a 32k-entry
// pseudo-random slice. Allocation, pointer-free copying, cache misses,
// and data-dependent branches give it the same sensitivity to memory
// subsystem contention as the real benchmarks, which is what makes the
// drift ratio transferable.
func setupRefSort() func(n int) {
	src := make([]int64, 32*1024)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src[i] = int64(x)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			work := make([]int64, len(src))
			copy(work, src)
			sort.Slice(work, func(a, b int) bool { return work[a] < work[b] })
			refSink = work[0]
		}
	}
}

// setupEngineDay measures one simulated day end to end (client browsing,
// bot floods, DNS fan-out) — the dominant cost of every study build. A
// fresh engine is built per n days so day indices stay in range; its
// construction is amortized across the round's n iterations.
func setupEngineDay() func(n int) {
	w := world.Generate(world.Config{Seed: 1, NumSites: 2000})
	return func(n int) {
		e := traffic.NewEngine(w, traffic.Config{Seed: 2, NumClients: 400, Days: n})
		e.AddSink(&traffic.BaseSink{})
		for d := 0; d < n; d++ {
			e.RunDay(d)
		}
	}
}

// setupRenderAllWarm measures re-rendering every paper artifact from a
// warm memoized artifact store — the interactive cost of toplistsd's
// list endpoints and of re-running experiments after a checkpoint
// restore. The first RenderAll (inside Measure's warm call) pays the
// artifact builds; timed iterations are memo hits plus formatting.
func setupRenderAllWarm() func(n int) {
	study, err := toplists.Run(toplists.Config{
		Seed: 11, Sites: 600, Clients: 150, Days: 2, Workers: 1,
	})
	if err != nil {
		panic(fmt.Sprintf("perfgate: renderall setup: %v", err))
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if err := study.RenderAll(io.Discard); err != nil {
				panic(fmt.Sprintf("perfgate: renderall: %v", err))
			}
		}
	}
}

// benchRankIDs builds a 20k-entry interned universe, mirroring the
// rank package's own benchmarks.
func benchRankIDs() (*names.Table, []names.ID) {
	tab := names.NewTable()
	ids := make([]names.ID, 20_000)
	for i := range ids {
		ids[i] = tab.Intern(fmt.Sprintf("site-%06d.example", i))
	}
	return tab, ids
}

// setupRankTopSet measures a cold top-k set build over a fresh ranking —
// the kernel under every pairwise list comparison.
func setupRankTopSet() func(n int) {
	tab, ids := benchRankIDs()
	k := len(ids) / 2
	return func(n int) {
		for i := 0; i < n; i++ {
			r := rank.MustFromIDs(tab, ids)
			if r.TopSetIDs(k).Len() != k {
				panic("perfgate: bad topset")
			}
		}
	}
}

// setupStatsJaccard measures a fig2-style similarity matrix: every list
// against every metric ranking, for each of several days, at several top-k
// cuts. The rankings are noisy copies of one popularity order over a
// 20k-entry universe, so head overlaps are partial as in the study. Top
// sets are built once (the study memoizes them per ranking and k); the
// timed op is the matrix of bitset Jaccards.
func setupStatsJaccard() func(n int) {
	const lists, metrics, days = 8, 7, 4
	ks := []int{100, 1000, 5000, 10000}
	tab, ids := benchRankIDs() // IDs 0..n-1, in popularity order
	x := uint64(0x2545F4914F6CDD1D)
	// sets[k][d] holds day d's top-k sets: the lists, then the metrics.
	sets := make([][][]*names.Set, len(ks))
	for d := 0; d < days; d++ {
		day := make([]*rank.Ranking, lists+metrics)
		for i := range day {
			noisy := make([]uint64, len(ids))
			for j := range noisy {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				noisy[j] = uint64(j) + x%2000
			}
			order := slices.Clone(ids)
			sort.Slice(order, func(a, b int) bool { return noisy[order[a]] < noisy[order[b]] })
			day[i] = rank.MustFromIDs(tab, order)
		}
		for ki, k := range ks {
			top := make([]*names.Set, len(day))
			for i, r := range day {
				top[i] = r.TopSetIDs(k)
			}
			sets[ki] = append(sets[ki], top)
		}
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			var sum float64
			for _, byDay := range sets {
				for _, top := range byDay {
					for _, l := range top[:lists] {
						for _, m := range top[lists:] {
							sum += stats.JaccardIDs(l, m)
						}
					}
				}
			}
			if sum <= 0 || sum > float64(len(ks)*days*lists*metrics) {
				panic("perfgate: bad jaccard matrix")
			}
		}
	}
}

// setupSketchMerge measures the day-barrier aggregation combine: one
// CountMin fold plus one SpaceSaving fold of populated summaries. The
// destinations saturate after the first iteration, so steady-state cost
// is what the rounds see.
func setupSketchMerge() func(n int) {
	srcCM := sketch.NewCountMin(1<<12, 4)
	srcSS := sketch.NewSpaceSaving(1024)
	for k := uint64(0); k < 8192; k++ {
		srcCM.Add(k, k%97+1)
		srcSS.Add(k, k%97+1)
	}
	dstCM := sketch.NewCountMin(1<<12, 4)
	dstSS := sketch.NewSpaceSaving(1024)
	return func(n int) {
		for i := 0; i < n; i++ {
			dstCM.Merge(srcCM)
			dstSS.Merge(srcSS, nil)
		}
	}
}

// setupSnapshotEncode measures canonical-form encoding of a 20k-entry
// ranking — the per-component cost of every checkpoint write.
func setupSnapshotEncode() func(n int) {
	tab, ids := benchRankIDs()
	r := rank.MustFromIDs(tab, ids)
	return func(n int) {
		for i := 0; i < n; i++ {
			var e snapshot.Encoder
			rank.EncodeRanking(&e, r)
			if _, err := e.WriteTo(io.Discard); err != nil {
				panic(err)
			}
		}
	}
}
