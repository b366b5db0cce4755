package toplists

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestRunContextPreCanceled: a context canceled before Run starts fails
// immediately with the context's error.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Config{Seed: 3, Sites: 400, Clients: 100, Days: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidRunNoLeak: canceling mid-simulation returns the
// context's error promptly and leaves no goroutines behind.
func TestRunContextCancelMidRunNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		// Big enough that cancellation lands mid-simulation on any machine.
		_, err := RunContext(ctx, Config{Seed: 3, Sites: 4000, Clients: 3000, Days: 28, Workers: 4})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext error %v, want context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("RunContext did not return within 15s of cancellation")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancel settle window", before, runtime.NumGoroutine())
}

// TestRunExperimentsContextCanceled: a canceled context surfaces in every
// not-yet-finished outcome instead of hanging the pool.
func TestRunExperimentsContextCanceled(t *testing.T) {
	s := facade(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.RunExperimentsContext(ctx, []string{"fig1", "tab2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range out {
		if !errors.Is(oc.Err, context.Canceled) {
			t.Errorf("%s: err %v, want context.Canceled", oc.ID, oc.Err)
		}
	}
}
