// Command pipebench is the repository's benchmark. One invocation runs one
// named workload of the toplists pipeline, checks the outputs for
// correctness, and prints every end-to-end metric — or, with --trace 1,
// every per-layer metric — by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 7.1, "unit": "s"}, ...}}
//
// Build and run it from the repository root:
//
//	bash pipebench/run.sh --workload study-exact --seed 1 --seconds 15 --trace 0
//
// README.md describes the workloads, why each exists, and every metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the settings of one benchmark invocation.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	scaleName string
	scale     scale
	bin       string // directory holding the toplistsd binary
	out       string // directory for traces, result files and server state
	corrupt   bool   // corrupt one output on purpose, to exercise the checks

	// child runs one study in this process ("ref" or "measure") with
	// workers simulation and evaluation workers. The orchestrator
	// re-executes itself this way so that every study gets a fresh process
	// and its own peak-RSS reading.
	child   string
	workers int
}

// scale fixes the input sizes of every workload.
type scale struct {
	sites, clients int
	exactDays      int // study-exact's measurement window, in days
	sketchDays     int // study-sketch's
	reads          int // in-process ranking reads after each study run
	rounds         int // serve-mixed server lifetimes per run
}

var scales = map[string]scale{
	// full is the size the workloads are defined at (see README.md).
	"full": {sites: 20000, clients: 3000, exactDays: 14, sketchDays: 7, reads: 2000, rounds: 3},
	// tiny keeps the smoke tests fast.
	"tiny": {sites: 1500, clients: 200, exactDays: 3, sketchDays: 2, reads: 200, rounds: 2},
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: study-exact, study-sketch or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input of the workload derives from")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to measure, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.scaleName, "scale", "full", "input size: full, or tiny for smoke tests")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the toplistsd binary")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for traces, result files and server state")
	flag.BoolVar(&o.corrupt, "corrupt", false, "corrupt one output on purpose, to exercise the correctness check")
	flag.StringVar(&o.child, "child", "", "internal: run one study in this process (ref or measure)")
	flag.IntVar(&o.workers, "workers", measuredWorkers, "internal: workers of a child study")
	flag.Parse()

	sc, ok := scales[o.scaleName]
	if !ok {
		fail("unknown -scale %q (have full, tiny)", o.scaleName)
	}
	o.scale = sc
	if o.child != "" {
		if err := runChild(o); err != nil {
			fail("%s study: %v", o.child, err)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fail("%v", err)
	}
	if err := rep.write(os.Stdout, o); err != nil {
		fail("%v", err)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// fail reports a run that could not produce a result and exits non-zero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pipebench: "+format+"\n", args...)
	os.Exit(1)
}

// run executes the selected workload and returns its report.
func run(o options) (*report, error) {
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	// An absolute path, so exec never looks the server up in $PATH.
	bin, err := filepath.Abs(o.bin)
	if err != nil {
		return nil, err
	}
	o.bin = bin
	rep := newReport(o.trace == 1)
	if w, ok := studyWorkloads[o.workload]; ok {
		if o.trace == 1 {
			err = traceStudy(o, w, rep)
		} else {
			err = measureStudy(o, w, rep)
		}
		return rep, err
	}
	if o.workload != "serve-mixed" {
		return nil, fmt.Errorf("unknown --workload %q (have study-exact, study-sketch, serve-mixed)", o.workload)
	}
	if o.trace == 1 {
		err = traceServe(o, rep)
	} else {
		err = measureServe(o, rep)
	}
	return rep, err
}
