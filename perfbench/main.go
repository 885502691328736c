// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks the program's outputs, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// the last line of standard output:
//
//	go run . --workload offline-corpus --seed 1 --seconds 20 --trace 0
//
// Workloads: offline-corpus, fleet-http, history-asof. README.md says
// why each exists and what every metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics every untraced run prints, with units.
// Each workload reads them off its own path; README.md maps them.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"peak_heap_mb":   "MB",
	"throughput_fps": "frames/s",
	"latency_p50_ms": "ms",
	"latency_p99_ms": "ms",
	"virtual_fps":    "frames/s",
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	correct           bool
	metrics           map[string]metric
	notes             map[string]any
}

func newReport() *report {
	return &report{correct: true, metrics: make(map[string]metric), notes: make(map[string]any)}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail counts n failed operations and, for wrong outputs, clears the
// correctness verdict.
func (r *report) fail(n int, wrong bool, why string) {
	r.failed += n
	if wrong {
		r.correct = false
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", why)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
}

var workloads = map[string]func(runConfig) (*report, error){
	"offline-corpus": runOffline,
	"fleet-http":     runFleet,
	"history-asof":   runHistory,
}

func main() {
	var (
		workload = flag.String("workload", "", "offline-corpus, fleet-http or history-asof")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "measuring time per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		workdir  = flag.String("workdir", ".bench_build/work", "scratch directory for histories and span files")
		writeRef = flag.String("write-reference", "", "record offline-corpus references for seeds FROM:TO into this file and exit")
	)
	flag.Parse()
	if *writeRef != "" {
		if err := writeReference(*writeRef, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names())
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, workdir: *workdir}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, make(map[string]metric, len(want))}
	for name, unit := range want {
		m, ok := rep.metrics[name]
		if !ok {
			m = metric{0, unit}
		}
		if m.Unit != unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s measured in %s, declared in %s\n", name, m.Unit, unit)
			os.Exit(1)
		}
		out.Metrics[name] = m
	}
	env := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"notes":      rep.notes,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out); err != nil {
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// spanFile is where a traced run writes its spans.
func spanFile(cfg runConfig, workload string) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.ndjson", workload, cfg.seed))
}

// timeSetup runs setup setupReps times and reports the median duration
// with the last result, so set-up cost is measured as steadily as the
// timed work.
func timeSetup[T any](rep *report, setup func() (T, error)) (T, error) {
	const setupReps = 3
	var (
		out  T
		err  error
		durs []float64
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		out, err = setup()
		if err != nil {
			return out, err
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(durs), "s")
	return out, nil
}

// setTail reports a latency distribution under the two latency metric
// names, noting which percentile the tail name carries and on how many
// samples it rests.
func setTail(rep *report, prefix string, samples []float64) {
	tl := tailOf(samples, 99)
	rep.set(prefix+"p50_ms", tl.Median, "ms")
	rep.set(prefix+"p99_ms", tl.Value, "ms")
	rep.notes[prefix+"p99_ms"] = map[string]any{"percentile": tl.P, "samples": tl.N}
}
