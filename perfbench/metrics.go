package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/expt"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd is the metric set of an untraced run. Every workload reports
// every one of them; see README.md for what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// layerKinds maps each pipeline layer to the engine job kind (the
// leading segment of its artifact key) that times it in
// engine.Stats().Latency.
var layerKinds = []struct{ layer, kind string }{
	{"workload", "program"},
	{"emu", "emu"},
	{"cfg", "cfg"},
	{"reach", "reach"},
	{"core", "table"},
	{"heuristic", "heur"},
	{"cluster", "sim"},
}

// perLayer is the metric set of a traced run.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, lk := range layerKinds {
		ms = append(ms,
			metricDef{lk.layer + ".calls", "count", "lower"},
			metricDef{lk.layer + ".busy_ms", "ms", "lower"})
	}
	ms = append(ms,
		metricDef{"cluster.max_ms", "ms", "lower"},
		metricDef{"cluster.ms_per_minstr", "ms/Minstr", "lower"},
		metricDef{"sched.tasks", "count", "lower"},
		metricDef{"sched.steals", "count", "lower"},
		metricDef{"sched.parks", "count", "lower"},
		metricDef{"sched.busy_ratio", "ratio", "higher"},
		metricDef{"runtime.alloc_mb", "MB", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"engine.executed", "count", "lower"},
		metricDef{"engine.deduped", "count", "higher"},
		metricDef{"engine.mem_hit_ratio", "ratio", "higher"},
		metricDef{"engine.disk_hit_ratio", "ratio", "higher"},
		metricDef{"engine.mem_evictions", "count", "lower"},
		metricDef{"engine.disk_writes", "count", "lower"},
		metricDef{"engine.bytes_resident", "B", "lower"},
		metricDef{"shard.proxied_ratio", "ratio", "lower"},
		metricDef{"shard.forward_extra_ms", "ms", "lower"},
		metricDef{"shard.remote_fetches", "count", "lower"},
		metricDef{"shard.fallbacks", "count", "lower"},
		metricDef{"shard.replica_pushes", "count", "lower"},
		metricDef{"admit.admitted", "count", "higher"},
		metricDef{"admit.bypassed", "count", "higher"},
		metricDef{"admit.rejected", "count", "lower"},
		metricDef{"server.pre_exec_ms", "ms", "lower"},
		metricDef{"server.warm_self_ms", "ms", "lower"},
	)
	for _, id := range expt.FigureIDs() {
		ms = append(ms, metricDef{"expt." + id + "_ms", "ms", "lower"})
	}
	return append(ms, metricDef{"trace.overhead_ratio", "ratio", "lower"})
}()

// infoUnits gives the units of the informational metrics: printed for
// reading, not part of the gated JSON.
var infoUnits = map[string]string{
	"sweeps":                  "count",
	"samples":                 "count",
	"latency_p99_ms":          "ms",
	"fail_ratio":              "ratio",
	"sim_minstr_per_s":        "Minstr/s",
	"batch_first_line_p50_ms": "ms",
	"batch_lines_per_s":       "1/s",
	"batches":                 "count",
	"scripts":                 "count",
	"recomputed":              "count",
	"server_trees":            "count",
}

// layerCalls sets <layer>.calls and <layer>.busy_ms from per-kind
// (calls, busy ms) totals, divided by n.
func layerCalls(out *outcome, lat map[string][2]float64, n float64) {
	for _, lk := range layerKinds {
		out.layer[lk.layer+".calls"] = lat[lk.kind][0] / n
		out.layer[lk.layer+".busy_ms"] = lat[lk.kind][1] / n
	}
}

// perMinstr is busy milliseconds per million committed simulated
// instructions (0 when nothing was simulated).
func perMinstr(busyMS float64, committed int64) float64 {
	if committed == 0 {
		return 0
	}
	return busyMS / (float64(committed) / 1e6)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads a process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
}

// cpuTime reads a process's user plus system CPU time from
// /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	// utime and stime are fields 14 and 15, in clock ticks; Linux
	// reports them at USER_HZ = 100 on every architecture Go supports.
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

func selfPeakRSSMB() float64 {
	v, err := peakRSSMB("self")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return v
}
