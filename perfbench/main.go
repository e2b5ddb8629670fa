// Command perfbench is the repository's benchmark: one seeded
// workload per run, measured end to end (untraced) or layer by layer
// (traced), with every output checked. See README.md in this directory.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash perfbench/run.sh --workload figures|serve-cold|serve-mixed \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	serverBin string // spmt-server binary (serving workloads)
	workDir   string // scratch space for stores, logs and span files
	srcDir    string // repository root, for the source digest
}

// outcome is what a workload measured.
type outcome struct {
	e2e     map[string]float64 // end-to-end metrics (untraced runs)
	layer   map[string]float64 // per-layer metrics (traced runs)
	info    map[string]float64 // printed for reading, not gated
	ops     tally
	correct bool
	notes   []string // output-check failures, one line each
	spans   *recorder
	mu      sync.Mutex // guards correct and notes
}

func newOutcome() *outcome {
	return &outcome{
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		info:    map[string]float64{},
		correct: true,
	}
}

// fail records an output-check failure.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.correct = false
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"figures":     runFigures,
	"serve-cold":  runServeCold,
	"serve-mixed": runServeMixed,
}

func main() {
	var cfg config
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "figures, serve-cold or serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.serverBin, "server-bin", ".bench_build/bin/spmt-server", "spmt-server binary")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build/work", "scratch directory")
	flag.StringVar(&cfg.srcDir, "src", ".", "repository root")
	sweep := flag.String("sweep", "", "internal: run one figures sweep in this order and report it as JSON")
	sweepBenches := flag.String("benches", "", "internal: benchmark order of the sweep")
	flag.Parse()
	if *sweep != "" {
		os.Exit(sweepMain(*sweep, *sweepBenches, traceFlag == 1))
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", sortedNames(workloads))
		os.Exit(2)
	}
	os.Exit(mainRun(cfg, run))
}

func mainRun(cfg config, run workloadFunc) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	host := stampHost(cfg.srcDir)
	warnHost(host, filepath.Join(cfg.srcDir, "perfbench", "reference.json"))
	hostLine, _ := json.Marshal(map[string]any{"host": host, "workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace})
	fmt.Println(string(hostLine))

	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if out.spans != nil {
		path := filepath.Join(cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := out.spans.write(path, host); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", out.spans.len(), path)
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", n)
	}
	res, err := report(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric of the run's set (end-to-end untraced,
// per-layer traced) plus the informational ones, one per line, and
// returns the result object. A metric of the set the workload did not
// produce is an error: every run reports the whole set.
func report(cfg config, out *outcome) (result, error) {
	set, vals := endToEnd, out.e2e
	if cfg.trace {
		set, vals = perLayer, out.layer
	}
	res := result{
		Correct:   out.correct,
		Attempted: out.ops.attempted,
		Failed:    out.ops.failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	for _, m := range set {
		v, ok := vals[m.name]
		if !ok {
			return res, fmt.Errorf("workload %s did not produce metric %s", cfg.workload, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("metric %-28s %14.6g %s\n", m.name, v, m.unit)
	}
	for _, name := range sortedNames(out.info) {
		fmt.Printf("info   %-28s %14.6g %s\n", name, out.info[name], infoUnits[name])
	}
	for _, r := range sortedNames(out.ops.reasons) {
		fmt.Printf("failed %-28s %14d count\n", r, out.ops.reasons[r])
	}
	return res, nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
