package traffic

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"toplists/internal/sketch"
	"toplists/internal/world"
)

func panicTestEngine(t *testing.T, workers int, sk sketch.Config) *Engine {
	t.Helper()
	w := world.Generate(world.Config{Seed: 61, NumSites: 200})
	return NewEngine(w, Config{Seed: 61, NumClients: 200, Days: 2, Workers: workers, Sketch: sk})
}

// engineModes are the two ways a day's clients are sharded: one logical
// shard per worker (exact) and sketchShards fixed logical shards.
var engineModes = []struct {
	name string
	sk   sketch.Config
}{{"exact", sketch.Config{}}, {"sketch", sketch.Config{Enabled: true}}}

// TestShardPanicBecomesError is the panic-recovery satellite: a panicking
// client simulation surfaces as a *ShardPanicError naming the shard and
// carrying the stack, from the worker pool and from the one-worker path,
// in both modes, instead of crashing the run.
func TestShardPanicBecomesError(t *testing.T) {
	for _, mode := range engineModes {
		for _, workers := range []int{1, 4} {
			e := panicTestEngine(t, workers, mode.sk)
			e.AddSink(&shardHashSink{})
			e.testHook = func(client, day int) {
				if client == 137 && day == 1 {
					panic("injected client panic")
				}
			}
			err := e.RunContext(context.Background())
			var spe *ShardPanicError
			if !errors.As(err, &spe) {
				t.Fatalf("%s workers=%d: RunContext error %v, want *ShardPanicError", mode.name, workers, err)
			}
			if spe.Day != 1 || spe.Lo > 137 || spe.Hi <= 137 {
				t.Errorf("%s workers=%d: panic located at day %d clients [%d,%d), want day 1 covering client 137",
					mode.name, workers, spe.Day, spe.Lo, spe.Hi)
			}
			nShards := workers
			if mode.sk.Enabled {
				nShards = sketchShards
			}
			if shards := shardRanges(len(e.Clients), nShards); spe.Shard < 0 || spe.Shard >= len(shards) ||
				shards[spe.Shard] != (shardRange{spe.Lo, spe.Hi}) {
				t.Errorf("%s workers=%d: shard %d [%d,%d) is not one of the day's shards %v",
					mode.name, workers, spe.Shard, spe.Lo, spe.Hi, shards)
			}
			if spe.Value != "injected client panic" {
				t.Errorf("%s workers=%d: panic value %v", mode.name, workers, spe.Value)
			}
			if !strings.Contains(string(spe.Stack), "simulateShard") {
				t.Errorf("%s workers=%d: stack does not reach the shard body:\n%s", mode.name, workers, spe.Stack)
			}
		}
	}
}

// TestRunPanicsWithoutContext: the legacy Run entry point preserves its
// crash-on-panic contract.
func TestRunPanicsWithoutContext(t *testing.T) {
	e := panicTestEngine(t, 2, sketch.Config{})
	e.testHook = func(client, day int) {
		if client == 3 {
			panic("boom")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run swallowed the shard panic")
		}
	}()
	e.Run()
}

// TestRunContextCancel: canceling mid-run stops promptly with the context
// error and skips the remaining days.
func TestRunContextCancel(t *testing.T) {
	for _, mode := range engineModes {
		for _, workers := range []int{1, 4} {
			e := panicTestEngine(t, workers, mode.sk)
			ctx, cancel := context.WithCancel(context.Background())
			var began int
			e.AddSink(countingSink{days: &began})
			e.AddSink(&shardHashSink{})
			e.testHook = func(client, day int) {
				if day == 0 && client == 100 {
					cancel()
				}
			}
			start := time.Now()
			err := e.RunContext(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: RunContext error %v, want context.Canceled", mode.name, workers, err)
			}
			if began > 1 {
				t.Errorf("%s workers=%d: %d days began after day-0 cancel", mode.name, workers, began)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("%s workers=%d: cancel took %v to take effect", mode.name, workers, elapsed)
			}
		}
	}
}

// TestPreCanceledContext: a context canceled before the run begins stops
// before any sink sees a day.
func TestPreCanceledContext(t *testing.T) {
	e := panicTestEngine(t, 2, sketch.Config{})
	var began int
	e.AddSink(countingSink{days: &began})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error %v, want context.Canceled", err)
	}
	if began != 0 {
		t.Errorf("%d days began under a pre-canceled context", began)
	}
}

// countingSink counts BeginDay calls.
type countingSink struct {
	BaseSink
	days *int
}

func (s countingSink) BeginDay(d int, weekend bool) { *s.days++ }
