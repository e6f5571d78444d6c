// Command perfbench is the repository benchmark. It runs one workload
// against the scheduler from outside and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics (endToEnd
// below); with -trace 1 a separate traced run reports the per-layer
// metrics (perLayer). Every run first prints a host line (nproc,
// GOMAXPROCS, Go version, CPU model), because figures do not carry
// across hosts.
//
// Workloads (the seed drives every generated input):
//
//	paper-sweep  one-shot BA, OIHSA and BBSA Schedule calls in-process
//	             on a fixed set of §6 instances per seed
//	serve-small  edgeschedd -algo BA-EFT -topology star:8, closed loop
//	             of small DAGs over 2 keep-alive connections
//	serve-mixed  edgeschedd -algo OIHSA on a 64-processor heterogeneous
//	             cluster, open loop at 200/s of 90% small and 10% large
//	             DAGs over 2 connections
//
// The host this was tuned on slows down in bursts of a second or more,
// so paper-sweep times each call by its fastest passes, and a served
// loop with enough samples is read as the median of sub-windows (see
// summarize). The load generator runs at GOMAXPROCS=1 so it competes
// less with the daemon.
//
// Seed 1 is the baseline seed; seed 7919 is held out, for confirming a
// claimed gain on inputs the change was not tuned on.
//
// Usage (run.sh builds the daemon and this driver first):
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the scheduler sees; every
// workload reports each of them (see BENCHMARK.json for bounds).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_sps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"dag.cpu_share", "fraction"},
	{"network.cpu_share", "fraction"},
	{"network.route_hops_mean", "count"},
	{"network.cache_hit_rate", "fraction"},
	{"network.cache_fill_frac", "fraction"},
	{"network.cache_contention_per_kreq", "count"},
	{"linksched.cpu_share", "fraction"},
	{"linksched.slots_per_link_mean", "count"},
	{"linksched.slots_per_link_max", "count"},
	{"sched.cpu_share", "fraction"},
	{"sched.ba_ms_p50", "ms"},
	{"sched.oihsa_ms_p50", "ms"},
	{"sched.bbsa_ms_p50", "ms"},
	{"sched.engine_ms_p50", "ms"},
	{"sched.engine_ms_p99", "ms"},
	{"sched.engine_cold_states", "count"},
	{"sched.engine_rejected", "count"},
	{"graphio.cpu_share", "fraction"},
	{"graphio.decode_us_p50", "us"},
	{"graphio.body_kb_mean", "KiB"},
	{"verify.ms_per_sched", "ms"},
	{"edgeschedd.overhead_ms_p50", "ms"},
	{"runtime.gc_cpu_share", "fraction"},
	{"runtime.alloc_kb_per_sched", "KiB"},
	{"runtime.mallocs_per_sched", "count"},
	{"loadgen.small_p99_ms", "ms"},
	{"loadgen.queue_wait_ms_p99", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"quality.oihsa_vs_ba_makespan_pct", "%"},
	{"quality.bbsa_vs_ba_makespan_pct", "%"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	daemon  string // edgeschedd binary
	work    string // directory for the run's scratch files
}

// report is what a workload measured. problems lists every reason the
// run's outputs are wrong; any problem or failed operation makes the
// run incorrect.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"paper-sweep": runPaperSweep,
	"serve-small": runServeSmall,
	"serve-mixed": runServeMixed,
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

// result assembles the printed object: every metric of the requested
// set, end-to-end ones required, per-layer ones defaulting to 0.
func (r *report) result(trace bool) (result, error) {
	defs, required := endToEnd, true
	if trace {
		defs, required = perLayer, false
	}
	out := result{Correct: r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && required {
			return out, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("%s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "paper-sweep, serve-small or serve-mixed")
		seed     = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds  = flag.Float64("seconds", 30, "measurement length in seconds")
		trace    = flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
		daemon   = flag.String("daemon", "", "edgeschedd binary (served workloads)")
		work     = flag.String("work", "", "directory for scratch files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *work == "" {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatal(fmt.Errorf("need -work, -seconds > 0 and -workload one of %s", strings.Join(names, ", ")))
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, daemon: *daemon, work: *work}

	host, err := json.Marshal(map[string]any{"host": hostFacts(), "workload": *workload,
		"seed": *seed, "seconds": *seconds, "trace": *trace})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(host))

	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fatal(err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// hostFacts are stamped on every result: baselines only compare on
// the same host and GOMAXPROCS.
func hostFacts() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu}
}

// statusMB reads one memory field of a live process, such as "VmHWM",
// its peak resident set, or "VmRSS", its current one.
func statusMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
