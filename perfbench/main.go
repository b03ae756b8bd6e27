// Command perfbench is the repository's end-to-end benchmark: full
// conjunction screens with the grid, hybrid and sharded detectors, and the
// continuous service path from a catalogue delta to the SSE event it
// causes. See README.md for the workloads, the metrics and how to run it.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"op_p50_ms": {"value": 3810.2, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	satconj "repro"
)

// workload is one named benchmark configuration.
type workload struct {
	name    string
	variant satconj.Variant
	objects int
	window  float64 // screened span, seconds
	sps     float64 // sampling step, seconds
	service bool    // drive the in-process service instead of batch screens
}

// Every workload screens the paper's KDE population at the paper's 2 km
// threshold. README.md says why each was chosen.
var workloads = []workload{
	{name: "grid-32k", variant: satconj.VariantGrid, objects: 32768, window: 300, sps: 1},
	{name: "hybrid-32k", variant: satconj.VariantHybrid, objects: 32768, window: 600, sps: 9},
	{name: "sharded-131k", variant: satconj.VariantSharded, objects: 131072, window: 60, sps: 1},
	{name: "service-8k", variant: satconj.VariantGrid, objects: 8192, window: 120, sps: 1, service: true},
}

const thresholdKm = 2.0

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one invocation's settings. The fault fields plant defects
// for the benchmark's own tests; a normal run leaves them zero.
type runConfig struct {
	wl           workload
	seed         uint64
	seconds      float64
	trace        bool
	setups       int           // set-ups per run; setup_s is their median
	minOps       int           // timed operations at least, even past the deadline
	readRate     float64       // service reads per second
	eventTimeout time.Duration // wait for a delta's SSE event
	buildDir     string        // scratch stores and trace files go here
	tracePath    string        // where a traced run writes its spans

	dropConjunction bool // remove the first planted encounter from each screen before checking
	withholdEvent   bool // drop the first delta's events before the subscriber sees them
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload run's outcome. metrics holds the numbers the JSON
// line carries, the ones BENCHMARK.json declares; extras are printed for
// people only (see README.md).
type report struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	extras    map[string]metric
	reps      int
	steal     float64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, extras: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string)   { r.metrics[name] = metric{v, unit} }
func (r *report) extra(name string, v float64, unit string) { r.extras[name] = metric{v, unit} }

// op records one checked operation.
func (r *report) op(fails []string) {
	r.attempted++
	if len(fails) > 0 {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fails...)
		}
	}
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envelope is the run's context: enough to tell two hosts or two builds
// apart when comparing captures. It is printed, not gated on.
type envelope struct {
	Schema     string  `json:"schema"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Reps       int     `json:"reps"`
	Steal      float64 `json:"host_steal_share"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase, seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		buildDir = flag.String("build-dir", ".bench_build", "directory for scratch stores and traces")
		refOut   = flag.String("write-reference", "", "record the workload's first screen as the reference set at this path")
	)
	flag.Parse()
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	cfg := runConfig{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: 5, minOps: 3, readRate: 2000, eventTimeout: eventTimeout, buildDir: *buildDir,
		tracePath: filepath.Join(*buildDir, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, *seed)),
	}
	if *refOut != "" {
		if err := recordReference(cfg, *refOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := envelope{
		Schema: "paperbench/v2", Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Reps: rep.reps, Steal: rep.steal,
	}
	if !printReport(os.Stdout, env, rep) {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run executes one workload.
func run(cfg runConfig) (*report, error) {
	if cfg.wl.service {
		return runService(cfg)
	}
	return runBatch(cfg)
}

// printReport writes the human-readable lines and then the JSON result
// line, and reports whether every check passed.
func printReport(w io.Writer, env envelope, rep *report) bool {
	eb, _ := json.Marshal(env)
	fmt.Fprintf(w, "envelope %s\n", eb)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	rep.extra("failed_share", share, "ratio")
	for _, m := range []map[string]metric{rep.metrics, rep.extras} {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "metric %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	ok := rep.failed == 0 && rep.attempted > 0
	b, _ := json.Marshal(resultLine{Correct: ok, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics})
	fmt.Fprintf(w, "%s\n", b)
	return ok
}

// commit names the program revision, which run.sh passes in from the
// checkout's git metadata when there is any.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// runAll runs every workload in turn, each in its own process so no heap or
// pool state leaks between them, and returns a non-zero code if any failed.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--workload" || a == "-workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") {
			continue
		}
		rest = append(rest, a)
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, append([]string{"--workload", w.name}, rest...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
