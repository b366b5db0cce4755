package obs

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer is the run-timeline tier of the telemetry stack: where counters
// say how much work happened and histograms say how long it took in
// aggregate, the tracer records *when* — a timeline of spans exported as
// Chrome trace_event JSON, openable in Perfetto or chrome://tracing.
//
// Events are split across two stores with different loss guarantees:
//
//   - Phase-boundary events (explicit Begin/End marks and completed phase
//     spans) are rare — a handful per run — and are never dropped. They
//     live in a mutex-guarded slice.
//
//   - Fine-grained spans (per-shard simulate slices, artifact builds,
//     queue waits) can number in the hundreds of thousands. They go into a
//     fixed-capacity ring claimed by an atomic cursor: writing is
//     allocation-free, and once the ring wraps the oldest spans are
//     overwritten. Dropped reports how many were lost.
//
// All methods are nil-safe, so instrumented code pays one branch when no
// tracer is attached — the same contract as every other obs primitive.
//
// Each ring slot carries a busy word, so two writers that claim the same
// slot after a wrap take turns instead of interleaving their fields.
// Snapshotting (Events, WriteJSON) still reads the ring without taking
// those words, so it is only well-defined after the traced workload has
// quiesced — the same "snapshot at a barrier" contract as Report.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	bound []Event // phase-boundary events; never dropped

	ring []ringSlot
	next atomic.Uint64 // total ring events ever claimed
}

// ringSlot is one span ring entry. busy is 1 while a writer fills ev.
type ringSlot struct {
	busy atomic.Uint32
	ev   Event
}

// Event is one trace entry. TS and Dur are nanoseconds relative to the
// tracer's epoch; Ph is the Chrome trace_event phase ('B' begin, 'E' end,
// 'X' complete span).
type Event struct {
	Name string
	Cat  string
	Ph   byte
	TID  int64
	TS   int64
	Dur  int64
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity: large enough to hold every span of a reference
// month at a few thousand clients, small enough to stay a few megabytes.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer whose span ring holds capacity events
// (DefaultTraceCapacity if capacity <= 0). The epoch — ts 0 in the
// export — is the moment of creation.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		epoch: time.Now(),
		bound: make([]Event, 0, 256),
		ring:  make([]ringSlot, capacity),
	}
}

// Begin records a phase-boundary begin mark. Begin/End pairs must nest
// properly per timeline (Chrome's duration-event rule); concurrent or
// overlapping work should use Span instead. Safe on nil.
func (t *Tracer) Begin(name, cat string) {
	if t == nil {
		return
	}
	ev := Event{Name: name, Cat: cat, Ph: 'B', TS: time.Since(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.bound = append(t.bound, ev)
	t.mu.Unlock()
}

// End records the phase-boundary end mark matching the most recent Begin
// of the same name. Safe on nil.
func (t *Tracer) End(name, cat string) {
	if t == nil {
		return
	}
	ev := Event{Name: name, Cat: cat, Ph: 'E', TS: time.Since(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.bound = append(t.bound, ev)
	t.mu.Unlock()
}

// Phase records a completed phase span into the never-dropped store.
// Phase spans are low-frequency (once per study phase, once per
// experiment) and may overlap across goroutines, so they are emitted as
// complete 'X' events rather than B/E pairs. Safe on nil.
func (t *Tracer) Phase(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	ev := Event{Name: name, Cat: "phase", Ph: 'X', TS: start.Sub(t.epoch).Nanoseconds(), Dur: int64(d)}
	t.mu.Lock()
	t.bound = append(t.bound, ev)
	t.mu.Unlock()
}

// Span records a completed fine-grained span into the bounded ring. This
// is the hot path: claiming a slot is one atomic add, taking its busy word
// one compare-and-swap (it only spins when another writer holds the same
// slot after a wrap), and writing it allocates nothing, so per-shard and
// per-build instrumentation can call it from any goroutine. Oldest spans
// are overwritten once the ring wraps. Safe on nil.
func (t *Tracer) Span(name, cat string, tid int64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	ev := Event{Name: name, Cat: cat, Ph: 'X', TID: tid, TS: start.Sub(t.epoch).Nanoseconds(), Dur: int64(d)}
	s := &t.ring[(t.next.Add(1)-1)%uint64(len(t.ring))]
	for !s.busy.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
	s.ev = ev
	s.busy.Store(0)
}

// Dropped returns how many ring spans have been overwritten (0 on nil).
// Phase-boundary events are never dropped.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if n <= uint64(len(t.ring)) {
		return 0
	}
	return int64(n - uint64(len(t.ring)))
}

// Len returns the number of events currently held (0 on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := int(t.next.Load())
	if n > len(t.ring) {
		n = len(t.ring)
	}
	t.mu.Lock()
	n += len(t.bound)
	t.mu.Unlock()
	return n
}

// Events returns a snapshot of all held events sorted by timestamp, with
// negative timestamps clamped to zero and a synthetic 'E' appended for
// any dangling 'B' so the set is always balanced. Call only after the
// traced workload has quiesced.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.bound), len(t.bound)+len(t.ring))
	copy(out, t.bound)
	t.mu.Unlock()
	n := int(t.next.Load())
	if n > len(t.ring) {
		n = len(t.ring)
	}
	for i := range t.ring[:n] {
		out = append(out, t.ring[i].ev)
	}
	var maxTS int64
	for i := range out {
		if out[i].TS < 0 {
			out[i].TS = 0
		}
		if out[i].Dur < 0 {
			out[i].Dur = 0
		}
		if end := out[i].TS + out[i].Dur; end > maxTS {
			maxTS = end
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	// Balance dangling begins: a crash or early export mid-phase must not
	// produce a malformed timeline. Each unmatched B gets a synthetic E at
	// the latest known timestamp.
	type key struct{ name, cat string }
	open := make(map[key]int)
	for _, ev := range out {
		switch ev.Ph {
		case 'B':
			open[key{ev.Name, ev.Cat}]++
		case 'E':
			open[key{ev.Name, ev.Cat}]--
		}
	}
	for k, n := range open {
		for ; n > 0; n-- {
			out = append(out, Event{Name: k.name, Cat: k.cat, Ph: 'E', TS: maxTS})
		}
	}
	return out
}

// WriteJSON writes the held events as a Chrome trace_event JSON object
// ({"traceEvents": [...]}, timestamps in microseconds). The output loads
// directly in Perfetto and chrome://tracing. Safe on nil (writes an empty
// trace). Call only after the traced workload has quiesced.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range t.Events() {
		sep := ","
		if i == 0 {
			sep = ""
		}
		var err error
		if ev.Ph == 'X' {
			_, err = fmt.Fprintf(bw, "%s{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%d,\"dur\":%d}\n",
				sep, ev.Name, ev.Cat, ev.TID, ev.TS/1e3, ev.Dur/1e3)
		} else {
			_, err = fmt.Fprintf(bw, "%s{\"name\":%q,\"cat\":%q,\"ph\":%q,\"pid\":1,\"tid\":%d,\"ts\":%d}\n",
				sep, ev.Name, ev.Cat, string(ev.Ph), ev.TID, ev.TS/1e3)
		}
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// SetTracer attaches t to the registry: phase spans recorded through
// Registry.Span / Phase.Start from now on also emit timeline events, and
// components that capture the tracer at setup (engine, artifact store,
// experiment pool) will find it via Tracer. Attach before building the
// study so setup phases are captured. Safe on a nil registry.
func (r *Registry) SetTracer(t *Tracer) {
	if r == nil {
		return
	}
	r.tracer.Store(t)
	r.mu.Lock()
	for _, p := range r.phases {
		p.tracer.Store(t)
	}
	r.mu.Unlock()
}

// Tracer returns the attached tracer, or nil if none. Safe on nil.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer.Load()
}
