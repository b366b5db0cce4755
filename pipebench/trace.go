package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"toplists/internal/obs"
)

// closureTolerance is how far, as a share of the traced wall time, the
// per-layer self times plus unattributed_s may miss the wall time before a
// traced run counts as failed. Spans are recorded from one goroutine and
// nest strictly, so only overlapping sibling spans can open a gap.
const closureTolerance = 0.01

// spanRec is one timed call from the benchmark into a layer.
type spanRec struct {
	name       string
	parent     int           // index of the enclosing span, -1 at top level
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps the spans of a traced run in memory and mirrors them into
// an obs.Tracer for the Chrome trace_event export. Spans are opened and
// closed from one goroutine; detail spans (per-request timings recorded
// from the load generator's goroutines) go to the export only.
type recorder struct {
	epoch time.Time
	tl    *obs.Tracer
	spans []spanRec
	open  []int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), tl: obs.NewTracer(1 << 17)}
}

// span opens a span nested in the innermost open one and returns the
// function that closes it. A nil recorder records nothing.
func (r *recorder) span(name string) (end func()) {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	start := time.Now()
	idx := len(r.spans)
	r.spans = append(r.spans, spanRec{name: name, parent: parent, start: start.Sub(r.epoch)})
	r.open = append(r.open, idx)
	return func() {
		now := time.Now()
		r.spans[idx].end = now.Sub(r.epoch)
		r.open = r.open[:len(r.open)-1]
		r.tl.Span(name, layerOf(name), 0, start, now.Sub(start))
	}
}

// detail exports one span on timeline tid without entering it into the
// accounting. Safe from any goroutine and on a nil recorder.
func (r *recorder) detail(name string, tid int64, start time.Time, d time.Duration) {
	if r != nil {
		r.tl.Span(name, layerOf(name), tid, start, d)
	}
}

// durations returns the durations of every span named name, in seconds,
// in recording order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// layerOf is a span's layer: its name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// account attributes the traced wall time to layers. A span's self time is
// its duration minus the part of it its children cover; unattributed is
// the part of the wall time no top-level span covers. closure is how far
// the self times plus unattributed miss the wall time, as a share of it.
func (r *recorder) account(wall time.Duration) (self map[string]time.Duration, unattributed time.Duration, closure float64) {
	kids := make([][]int, len(r.spans))
	var top []int
	for i, s := range r.spans {
		if s.parent < 0 {
			top = append(top, i)
		} else {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self = make(map[string]time.Duration)
	var total time.Duration
	for i, s := range r.spans {
		d := s.end - s.start - covered(r.spans, kids[i], s.start, s.end)
		self[layerOf(s.name)] += d
		total += d
	}
	unattributed = wall - covered(r.spans, top, 0, wall)
	closure = math.Abs((total + unattributed - wall).Seconds()) / wall.Seconds()
	return self, unattributed, closure
}

// covered returns how much of [lo, hi] the spans idx cover together.
func covered(spans []spanRec, idx []int, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]time.Duration) int { return int(x[0] - y[0]) })
	var sum, curA, curB time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			sum += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		sum += curB - curA
	}
	return sum
}

// finishTrace reports the per-layer self times and the accounting check,
// and writes the Chrome trace_event JSON.
func finishTrace(o options, rec *recorder, rep *report) error {
	wall := time.Since(rec.epoch)
	self, unattributed, closure := rec.account(wall)
	for _, l := range layers {
		rep.set("self."+l+"_s", self[l].Seconds())
		delete(self, l)
	}
	if len(self) > 0 {
		return fmt.Errorf("spans outside the declared layers: %v", self)
	}
	rep.set("unattributed_s", unattributed.Seconds())
	rep.set("trace.wall_s", wall.Seconds())
	rep.set("trace.closure_error", closure)
	rep.check(closure <= closureTolerance, "per-layer self times plus unattributed_s miss the traced wall time by %.2f%% (tolerance %.0f%%)",
		100*closure, 100*closureTolerance)

	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.tl.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.notef("trace: %s (%d spans, %d dropped; open in https://ui.perfetto.dev)", path, rec.tl.Len(), rec.tl.Dropped())
	return nil
}
