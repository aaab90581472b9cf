// Command perfbench is the alexd serving benchmark. It builds a
// synthetic world from a seed, serves it in-process through the real
// HTTP stack (server.New or fleet.New behind net/http on loopback,
// configured as cmd/alexd and cmd/alexrouter configure them), drives it
// with at most nproc client connections, checks every answer and prints
// one JSON result line.
//
// Run it through the launcher, from the repository root:
//
//	bash perfbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the workload runs twice, untraced and then with wrappers
// around the program's interfaces, and the result carries the
// per-layer metrics plus the tracing overhead on every end-to-end
// metric. Workloads and metrics are described in BENCHMARK.json.
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

// params are one run's settings.
type params struct {
	workload string
	seed     int64
	dur      time.Duration
	out      string  // scratch root for data dirs and span dumps
	scale    float64 // world scale; 1 outside the self-tests
	setups   int     // set-up repetitions whose median is setup_s
	warmup   time.Duration
}

// outcome is what one pass of a workload measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed answer, accounting or restart checks
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed check; the run then reports correct=false.
func (o *outcome) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(o.problems) < 20 {
		o.problems = append(o.problems, msg)
	}
}

type workloadFunc func(p params, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"lookup":   runLookup,
	"join":     runJoin,
	"feedback": runFeedback,
	"fleet":    runFleet,
	// restart is the feedback loop plus a crash and warm reopen whose
	// recovered link set must equal the pre-crash one. It is not in
	// BENCHMARK.json: the program fails that check in some runs (see
	// README.md).
	"restart": runRestart,
}

// e2eUnits lists every end-to-end metric with its unit; every workload
// reports all of them.
var e2eUnits = map[string]string{
	"setup_s":            "s",
	"query_qps":          "1/s",
	"query_p50_ms":       "ms",
	"cpu_us_per_request": "us",
	"allocs_per_request": "count",
	"heap_mb":            "MB",
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "lookup, join, feedback, fleet or restart")
		seed     = flag.Int64("seed", 1, "seed of the generated world and traffic")
		seconds  = flag.Int("seconds", 10, "measured seconds for time-sized workloads")
		trace    = flag.Int("trace", 0, "1 = also run traced and report per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for data dirs and span dumps")
	)
	flag.Parse()
	code, err := mainErr(params{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		out: *out, scale: 1, setups: 3, warmup: time.Second,
	}, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr(p params, traced bool) (int, error) {
	run, ok := workloads[p.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want lookup, join, feedback, fleet or restart)", p.workload)
	}
	if p.dur <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	if n, max := runtime.GOMAXPROCS(0), runtime.NumCPU(); n > max {
		return 2, fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d; oversubscribed figures are noise", n, max)
	}
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return 1, err
	}
	stamp, err := stampFor(p)
	if err != nil {
		return 1, err
	}
	stampLine, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", stampLine)

	res := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	plain, err := run(p, nil)
	if err != nil {
		return 1, err
	}
	merge := func(o *outcome) {
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, pr := range o.problems {
			fmt.Fprintln(os.Stderr, "check failed:", pr)
		}
		if len(o.problems) > 0 {
			res.Correct = false
		}
	}
	merge(plain)
	if !traced {
		for name, unit := range e2eUnits {
			v, ok := plain.e2e[name]
			if !ok {
				return 1, fmt.Errorf("workload %s did not measure %s", p.workload, name)
			}
			res.Metrics[name] = metricJSON{Value: v, Unit: unit}
		}
	} else {
		tr := newTracer()
		p.setups = 1
		withTrace, err := run(p, tr)
		if err != nil {
			return 1, err
		}
		merge(withTrace)
		layers := perLayer
		if p.workload == "restart" {
			layers = append(layers[:len(layers):len(layers)], restartLayers...)
		}
		for _, m := range layers {
			res.Metrics[m.name] = metricJSON{Value: withTrace.layer[m.name], Unit: m.unit}
		}
		// The untraced pass supplies the loop figures; the traced pass
		// only its layers, and the difference is the tracing overhead.
		for _, m := range layers {
			if v, ok := plain.layer[m.name]; ok && m.untraced {
				res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
			}
		}
		for name, unit := range e2eUnits {
			res.Metrics["overhead."+name] = metricJSON{Value: withTrace.e2e[name] - plain.e2e[name], Unit: unit}
		}
		dump := filepath.Join(p.out, fmt.Sprintf("perfbench-spans-%s-%d.json", p.workload, p.seed))
		if err := tr.writeSpans(dump); err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", dump)
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%s: answer, accounting or restart checks failed", p.workload)
	}
	return 0, nil
}

// printSummary writes the metrics one per line to stderr for humans.
func printSummary(res resultJSON) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
