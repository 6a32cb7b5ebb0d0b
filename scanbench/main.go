// Command scanbench is the repository benchmark. It drives the ppSCAN
// library, the HTTP serving tier and the shard tier from outside, through
// their public entry points only, and checks every answer it gets.
//
// One run executes one workload for a fixed time (all runs the three in
// turn, each printing its own block):
//
//	scanbench --workload cluster|serve|serve-shard|all --seed N --seconds S --trace 0|1
//
// Human-readable lines (every figure by name, with its unit and sample
// count) come first; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end set, measured with every benchmark-side probe
// off; with --trace 1 they are the per-layer set. Both sets carry the same
// names on every workload; a layer a workload never exercises reads 0.
// Metric definitions and the reasoning behind the workloads are in
// README.md next to this file.
//
// Three flags exist for the self-test (selftest.py) and are never passed by
// a normal run: --schema prints the metric names, units and directions, which
// the self-test compares with BENCHMARK.json; --inject-delay arms a
// deterministic per-task scheduler delay through the fault package (cluster
// only); and --wrong-reference corrupts one reference answer so the run must
// report failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one run's parsed command line.
type config struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	injectDelay time.Duration
	wrongRef    bool
	nproc       int
}

// run accumulates one workload run's operation counts and figures. The
// counters are shared with load-generator goroutines, hence the mutex.
type run struct {
	cfg config

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string

	named []figure           // every figure, printed for humans
	e2e   map[string]float64 // end-to-end set (--trace 0)
	layer map[string]float64 // per-layer set (--trace 1)
}

// figure is one printed measurement.
type figure struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when not a sample statistic
}

// maxProblems bounds how many failure descriptions a run keeps for printing.
const maxProblems = 8

func newRun(cfg config) *run {
	return &run{
		cfg:   cfg,
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < maxProblems {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// print records a human-readable figure.
func (r *run) print(name string, value float64, unit string, n int) {
	r.named = append(r.named, figure{name, value, unit, n})
}

// setE2E records an end-to-end metric (and prints it).
func (r *run) setE2E(name string, value float64, n int) {
	r.e2e[name] = value
	r.print(name, value, unitOf(endToEnd, name), n)
}

// setLayer records a per-layer metric.
func (r *run) setLayer(name string, value float64) {
	if unitOf(perLayer, name) == "" {
		panic("scanbench: unlisted per-layer metric " + name)
	}
	r.layer[name] = value
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("scanbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (each in turn)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured duration of the run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, probes off; 1: per-layer metrics")
	fs.DurationVar(&cfg.injectDelay, "inject-delay", 0, "self-test: delay every scheduler task by this much (cluster)")
	fs.BoolVar(&cfg.wrongRef, "wrong-reference", false, "self-test: corrupt one reference answer")
	schema := fs.Bool("schema", false, "print the metric schema as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *schema {
		return printSchema()
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	} else if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "scanbench: unknown workload %q (want one of %s, or all)\n",
			cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "scanbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.nproc = runtime.GOMAXPROCS(0)

	status := 0
	for _, name := range names {
		cfg.workload = name
		r := newRun(cfg)
		if err := workloads[name](r); err != nil {
			fmt.Fprintf(os.Stderr, "scanbench: %s: %v\n", name, err)
			return 1
		}
		if code := r.emit(); code != 0 {
			status = code
		}
	}
	return status
}

// workload runs one workload, recording figures and operations into r. An
// error means the run could not be carried out at all (set-up failed);
// wrong answers are failed operations, not errors.
type workload func(r *run) error

var workloads = map[string]workload{
	"cluster":     runCluster,
	"serve":       runServe,
	"serve-shard": runServeShard,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many complete set-ups every run makes; setup_s is their
// median.
const setupReps = 3

// repeatSetup runs setup setupReps times, closing every state but the last,
// and returns the last state and the median set-up time in seconds.
func repeatSetup[S any](setup func() (S, error), close func(S)) (S, float64, error) {
	var st S
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			close(st)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			var zero S
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		st = s
	}
	return st, median(secs), nil
}

// heapMB returns the live heap in MB. Two forced collections: the first
// only moves sync.Pool contents to their victim caches, the second frees
// them.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the human-readable figures and the final JSON line.
func (r *run) emit() int {
	fmt.Printf("workload %s seed %d seconds %d trace %v nproc %d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, r.cfg.nproc)
	for _, f := range r.named {
		if f.n > 0 {
			fmt.Printf("  %-34s %14.4f %-8s n=%d\n", f.name, f.value, f.unit, f.n)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", f.name, f.value, f.unit)
		}
	}
	fmt.Printf("  operations attempted %d failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}

	out := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	set, vals := endToEnd, r.e2e
	if r.cfg.trace {
		set, vals = perLayer, r.layer
		for _, d := range perLayer {
			fmt.Printf("  layer %-44s %14.4f %s\n", d.Name, r.layer[d.Name], d.Unit)
		}
	}
	for _, d := range set {
		v, ok := vals[d.Name]
		if !ok && !r.cfg.trace {
			fmt.Fprintf(os.Stderr, "scanbench: end-to-end metric %s was not measured\n", d.Name)
			return 1
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "scanbench: no operation was attempted")
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
