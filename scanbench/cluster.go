package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/dataset"
	"ppscan/internal/fault"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/simdef"
)

// clusterJobs are the batch jobs of the cluster workload. Dense jobs spend
// most of their time in the intersection kernel and P2; sparse jobs have
// short adjacency lists, so the P4–P7 and dispatch floor dominates them.
var clusterJobs = []struct {
	dataset, eps string
	mu           int
	class        string
}{
	{"twitter-sim", "0.2", 3, "dense"},
	{"ROLL-d40", "0.1", 3, "dense"},
	{"friendster-sim", "0.5", 5, "dense"},
	{"webbase-sim", "0.2", 5, "sparse"},
	{"orkut-sim", "0.2", 3, "sparse"},
	{"livejournal-sim", "0.2", 3, "sparse"},
}

const (
	// sparseReps is how many sparse passes a round runs per dense pass:
	// sparse passes are short and noisier, so they get more samples.
	sparseReps = 3
	// w1Every spaces the single-worker passes: one every w1Every rounds.
	w1Every = 3
	// replayPairs is the number of sampled edges per job for the kernel
	// replay, and replayReps the timed repetitions per kernel.
	replayPairs = 4000
	replayReps  = 7
)

type clusterJob struct {
	name, eps string
	mu        int
	class     string
	g         *graph.Graph
	ref       *ppscan.Result
	th        simdef.Threshold
}

// clusterState is what one cluster set-up produces.
type clusterState struct {
	jobs   map[string][]*clusterJob // by class
	ws     *ppscan.Workspace
	coldMs float64
}

// setupCluster generates every job graph and computes each reference
// answer with the sequential pSCAN (jobs spread over nproc goroutines),
// then makes one cold run of every job on a fresh workspace, checked like
// every other run.
func setupCluster(r *run) (*clusterState, error) {
	jobs := make([]*clusterJob, len(clusterJobs))
	errs := make([]error, len(clusterJobs))
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(clusterJobs); i += r.cfg.nproc {
				jobs[i], errs[i] = newClusterJob(i)
			}
		}(w)
	}
	wg.Wait()
	st := &clusterState{jobs: map[string][]*clusterJob{}, ws: ppscan.NewWorkspace()}
	for i, j := range jobs {
		if errs[i] != nil {
			st.ws.Close()
			return nil, errs[i]
		}
		st.jobs[j.class] = append(st.jobs[j.class], j)
	}
	for i, j := range jobs {
		t0 := time.Now()
		res, err := ppscan.RunWorkspace(context.Background(), j.g, j.opts(r.cfg.nproc, nil), st.ws)
		if i == 0 {
			st.coldMs = float64(time.Since(t0)) / 1e6
		}
		r.op(j.check(res, err))
	}
	return st, nil
}

// newClusterJob builds the graph and the reference answer of clusterJobs[i].
func newClusterJob(i int) (*clusterJob, error) {
	spec := clusterJobs[i]
	ds, err := dataset.Get(spec.dataset)
	if err != nil {
		return nil, err
	}
	th, err := simdef.NewThreshold(spec.eps, int32(spec.mu))
	if err != nil {
		return nil, err
	}
	g := ds.Build(1.0)
	ref, err := ppscan.Run(g, ppscan.Options{Algorithm: ppscan.AlgoPSCAN, Epsilon: spec.eps, Mu: spec.mu})
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", spec.dataset, err)
	}
	return &clusterJob{name: spec.dataset, eps: spec.eps, mu: spec.mu, class: spec.class, g: g, ref: ref, th: th}, nil
}

func (j *clusterJob) opts(workers int, tr *ppscan.Tracer) ppscan.Options {
	return ppscan.Options{Epsilon: j.eps, Mu: j.mu, Workers: workers, Tracer: tr}
}

// check compares one run's answer with the reference.
func (j *clusterJob) check(res *ppscan.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s eps=%s mu=%d: %w", j.name, j.eps, j.mu, err)
	}
	if err := ppscan.Equal(j.ref, res); err != nil {
		return fmt.Errorf("%s eps=%s mu=%d: wrong answer: %w", j.name, j.eps, j.mu, err)
	}
	return nil
}

// corruptReference flips one core of the first dense job's reference to
// non-core, for the self-test.
func (st *clusterState) corruptReference() {
	j := st.jobs["dense"][0]
	ref := j.ref.Clone()
	for v, role := range ref.Roles {
		if role == ppscan.RoleCore {
			ref.Roles[v] = ppscan.RoleNonCore
			break
		}
	}
	j.ref = ref
}

// passKey identifies one sample series: a job class at a worker count.
type passKey struct {
	class   string
	workers int
}

// passTrace accumulates what traced passes of one class record.
type passTrace struct {
	passes   int
	phaseMs  [7]float64 // summed over passes
	busyNs   float64    // summed task span time
	wallNs   float64    // summed phase span time × workers
	maxBusy  float64    // Σ over (job, phase) of the busiest worker's time
	meanBusy float64    // Σ over (job, phase) of the mean worker's time
}

// counterDelta tracks process-global registry counters around passes.
type counterDelta struct {
	calls, early, scanned float64
	waitSum, waitCount    float64
	tasks                 []float64
	compSim, edges        float64
}

func runCluster(r *run) error {
	cfg := r.cfg
	st, setupS, err := repeatSetup(func() (*clusterState, error) { return setupCluster(r) },
		func(st *clusterState) { st.ws.Close() })
	if err != nil {
		return err
	}
	defer st.ws.Close()
	if cfg.wrongRef {
		st.corruptReference()
	}

	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.trace {
		replayKernels(r, st, rng)
	}
	if cfg.injectDelay > 0 {
		// A deterministic straggler on every scheduler task.
		fault.Enable(&fault.Plan{Rules: []fault.Rule{{
			Point: fault.WorkerTask, Action: fault.ActDelay,
			Start: 1, Every: 1, Delay: cfg.injectDelay,
		}}})
	}

	widths := []int{cfg.nproc}
	for _, w := range append([]int{1}, scalingWidths...) {
		if !slices.Contains(widths, w) {
			widths = append(widths, w)
		}
	}
	samples := map[passKey][]float64{}
	traced := map[string]*passTrace{}
	tracedNs := map[string][]float64{}
	counters := map[string]*counterDelta{}
	for _, c := range classes {
		traced[c] = &passTrace{}
		counters[c] = &counterDelta{}
	}
	tr := ppscan.NewTracer()
	reg := obsv.Default()

	// A round is the nproc-worker passes (one dense, sparseReps sparse)
	// and, every w1Every rounds, the same passes at every other width. The
	// deadline is checked before each pass, once the first round (the first
	// two when tracing) is complete.
	reps := map[string]int{"dense": 1, "sparse": sparseReps}
	minRounds := 1
	if cfg.trace {
		minRounds = 2
	}
rounds:
	for round := 0; ; round++ {
		var plan []passKey
		for _, w := range widths {
			if w != cfg.nproc && round%w1Every != 0 {
				continue
			}
			for _, c := range classes {
				for i := 0; i < reps[c]; i++ {
					plan = append(plan, passKey{c, w})
				}
			}
		}
		traceRound := cfg.trace && round%2 == 1
		for _, pk := range plan {
			if round >= minRounds && !time.Now().Before(deadline) {
				break rounds
			}
			c, jobs := pk.class, shuffled(st.jobs[pk.class], rng)
			switch {
			case pk.workers == cfg.nproc && traceRound:
				tracedNs[c] = append(tracedNs[c], tracedPass(r, st, jobs, tr, traced[c]))
			case pk.workers == cfg.nproc:
				before := snapshotCounters(reg)
				ns, _ := pass(r, st, jobs, pk.workers)
				samples[pk] = append(samples[pk], ns)
				counters[c].schedFrom(before, snapshotCounters(reg))
			default:
				before := snapshotCounters(reg)
				ns, compSim := pass(r, st, jobs, pk.workers)
				samples[pk] = append(samples[pk], ns)
				if pk.workers == 1 {
					counters[c].kernelFrom(before, snapshotCounters(reg), compSim, jobs)
				}
			}
		}
	}
	fault.Disable()
	elapsed := time.Since(start)

	med := func(c string, w int) float64 { return median(samples[passKey{c, w}]) / 1e9 }
	n := func(c string, w int) int { return len(samples[passKey{c, w}]) }
	r.setE2E("setup_s", setupS, setupReps)
	r.setE2E("primary_ms", med("dense", cfg.nproc)*1e3, n("dense", cfg.nproc))
	r.setE2E("secondary_ms", med("sparse", cfg.nproc)*1e3, n("sparse", cfg.nproc))
	r.print("dense_s", med("dense", cfg.nproc), "s", n("dense", cfg.nproc))
	r.print("sparse_s", med("sparse", cfg.nproc), "s", n("sparse", cfg.nproc))
	r.print("dense_w1_s", med("dense", 1), "s", n("dense", 1))
	r.print("sparse_w1_s", med("sparse", 1), "s", n("sparse", 1))
	r.print("measured_s", elapsed.Seconds(), "s", 0)

	if cfg.trace {
		r.setLayer("cluster.dense_w1_s", med("dense", 1))
		r.setLayer("cluster.sparse_w1_s", med("sparse", 1))
		r.setLayer("engine.cold_ms", st.coldMs)
		r.setLayer("engine.warm_allocs", warmAllocs(st, cfg.nproc))
		for _, c := range classes {
			t, cd := traced[c], counters[c]
			for p := range t.phaseMs {
				r.setLayer(fmt.Sprintf("core.%s.p%d_ms", c, p+1), ratio(t.phaseMs[p], float64(t.passes)))
			}
			r.setLayer("core."+c+".compsim_per_edge", ratio(cd.compSim, cd.edges))
			r.setLayer("kernel."+c+".early_exit_frac", ratio(cd.early, cd.calls))
			r.setLayer("kernel."+c+".elems_per_call", ratio(cd.scanned, cd.calls))
			base := med(c, 1)
			for _, w := range scalingWidths {
				sp := ratio(base, med(c, w))
				r.setLayer(fmt.Sprintf("sched.%s.speedup_w%d", c, w), sp)
				r.setLayer(fmt.Sprintf("sched.%s.efficiency_w%d", c, w), sp/float64(w))
			}
			r.setLayer("sched."+c+".busy_frac", ratio(t.busyNs, t.wallNs))
			r.setLayer("sched."+c+".imbalance", ratio(t.maxBusy, t.meanBusy))
			r.setLayer("sched."+c+".tasks", median(cd.tasks))
			r.setLayer("sched."+c+".queue_wait_ms", nsToMs(ratio(cd.waitSum, cd.waitCount)))
		}
		overhead := ratio(median(tracedNs["dense"]), median(samples[passKey{"dense", cfg.nproc}])) - 1
		r.setLayer("trace_overhead_frac", overhead)
		r.print("trace_overhead_frac", overhead, "ratio", len(tracedNs["dense"]))
	}
	r.setE2E("heap_mb", heapMB(), 0)
	return nil
}

// pass runs every job once at the given worker count, checking each answer
// outside the timed region, and returns the summed run time and the
// summed CompSim calls.
func pass(r *run, st *clusterState, jobs []*clusterJob, workers int) (ns, compSim float64) {
	for _, j := range jobs {
		t0 := time.Now()
		res, err := ppscan.RunWorkspace(context.Background(), j.g, j.opts(workers, nil), st.ws)
		ns += float64(time.Since(t0))
		r.op(j.check(res, err))
		if err == nil {
			compSim += float64(res.Stats.CompSimCalls)
		}
	}
	return ns, compSim
}

// tracedPass runs every job once at nproc workers with the tracer attached
// and folds its phase and task spans into t.
func tracedPass(r *run, st *clusterState, jobs []*clusterJob, tr *ppscan.Tracer, t *passTrace) float64 {
	var ns float64
	for _, j := range jobs {
		tr.Reset()
		t0 := time.Now()
		res, err := ppscan.RunWorkspace(context.Background(), j.g, j.opts(r.cfg.nproc, tr), st.ws)
		ns += float64(time.Since(t0))
		r.op(j.check(res, err))
		t.fold(tr.Events(), r.cfg.nproc)
	}
	t.passes++
	return ns
}

// fold adds one traced run's spans: P1–P7 on track 0, one span per
// scheduler task (named after its phase) on tracks 1..workers.
func (t *passTrace) fold(events []ppscan.TraceEvent, workers int) {
	phaseDur := map[string]float64{}
	busy := map[string][]float64{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if ev.TID == 0 {
			if len(ev.Name) > 1 && ev.Name[0] == 'P' && ev.Name[1] >= '1' && ev.Name[1] <= '7' {
				t.phaseMs[ev.Name[1]-'1'] += ev.Dur / 1e3
				phaseDur[ev.Name] += ev.Dur * 1e3
			}
			continue
		}
		if ev.TID > workers {
			continue
		}
		if busy[ev.Name] == nil {
			busy[ev.Name] = make([]float64, workers)
		}
		busy[ev.Name][ev.TID-1] += ev.Dur * 1e3
		t.busyNs += ev.Dur * 1e3
	}
	for name, d := range phaseDur {
		t.wallNs += d * float64(workers)
		b := busy[name]
		if b == nil {
			continue
		}
		var maxB, sum float64
		for _, x := range b {
			sum += x
			if x > maxB {
				maxB = x
			}
		}
		t.maxBusy += maxB
		t.meanBusy += sum / float64(workers)
	}
}

// registry counters read around passes; only the benchmark drives the
// library in this process, so deltas belong to the pass in between.
type counterSnap struct {
	calls, earlyDu, earlyDv, scanned int64
	tasks, waitSum, waitCount        int64
}

func snapshotCounters(reg *obsv.Registry) counterSnap {
	h := reg.Histogram(obsv.MetricSchedQueueWaitNs)
	return counterSnap{
		calls:     reg.Counter(obsv.MetricKernelCalls).Value(),
		earlyDu:   reg.Counter(obsv.MetricKernelEarlyDu).Value(),
		earlyDv:   reg.Counter(obsv.MetricKernelEarlyDv).Value(),
		scanned:   reg.Counter(obsv.MetricKernelScanned).Value(),
		tasks:     reg.Counter(obsv.MetricSchedTasks).Value(),
		waitSum:   h.Sum(),
		waitCount: h.Count(),
	}
}

// schedFrom adds the scheduler deltas of one nproc-worker pass.
func (cd *counterDelta) schedFrom(a, b counterSnap) {
	cd.tasks = append(cd.tasks, float64(b.tasks-a.tasks))
	cd.waitSum += float64(b.waitSum - a.waitSum)
	cd.waitCount += float64(b.waitCount - a.waitCount)
}

// kernelFrom adds the kernel and pruning counts of one single-worker pass;
// only those repeat exactly from run to run.
func (cd *counterDelta) kernelFrom(a, b counterSnap, compSim float64, jobs []*clusterJob) {
	cd.calls += float64(b.calls - a.calls)
	cd.early += float64(b.earlyDu - a.earlyDu + b.earlyDv - a.earlyDv)
	cd.scanned += float64(b.scanned - a.scanned)
	cd.compSim += compSim
	for _, j := range jobs {
		cd.edges += float64(j.g.NumEdges())
	}
}

// warmAllocs measures heap allocations of one warm run of the smallest
// sparse job on the benchmark's workspace.
func warmAllocs(st *clusterState, workers int) float64 {
	j := st.jobs["sparse"][len(st.jobs["sparse"])-1]
	return testing.AllocsPerRun(5, func() {
		_, _ = ppscan.RunWorkspace(context.Background(), j.g, j.opts(workers, nil), st.ws)
	})
}

// replayPair is one sampled edge: both sorted adjacency lists and the
// job's exact common-neighbour threshold for the pair.
type replayPair struct {
	a, b  []int32
	minCN int32
}

// replayKernels times every intersection kernel on edges sampled from each
// class's job graphs and checks every kernel's verdict against merge's on
// every pair.
func replayKernels(r *run, st *clusterState, rng *rand.Rand) {
	for _, c := range classes {
		var pairs []replayPair
		var elems float64
		for _, j := range st.jobs[c] {
			g := j.g
			for i := 0; i < replayPairs; i++ {
				e := rng.Int63n(g.NumDirectedEdges())
				u, v := g.EdgeEndpoint(e), g.Dst[e]
				p := replayPair{g.Neighbors(u), g.Neighbors(v), j.th.Eps.MinCN(g.Degree(u), g.Degree(v))}
				pairs = append(pairs, p)
				elems += float64(len(p.a) + len(p.b))
			}
		}
		want := make([]simdef.EdgeSim, len(pairs))
		for i, p := range pairs {
			want[i] = intersect.CompSim(intersect.Merge, p.a, p.b, p.minCN)
		}
		kinds := intersect.Kinds()
		for _, k := range kinds {
			bad := 0
			for i, p := range pairs {
				if intersect.CompSim(k, p.a, p.b, p.minCN) != want[i] {
					bad++
				}
			}
			var err error
			if bad > 0 {
				err = fmt.Errorf("kernel %s disagrees with merge on %d of %d %s pairs", k, bad, len(pairs), c)
			}
			r.op(err)
		}
		rates := make([][]float64, len(kinds))
		var sink simdef.EdgeSim
		for rep := 0; rep < replayReps; rep++ {
			for ki, k := range kinds {
				t0 := time.Now()
				for _, p := range pairs {
					sink ^= intersect.CompSim(k, p.a, p.b, p.minCN)
				}
				rates[ki] = append(rates[ki], elems/time.Since(t0).Seconds()/1e6)
			}
		}
		replaySink = sink
		for ki, k := range kinds {
			r.setLayer(fmt.Sprintf("kernel.%s.%s_melems_per_s", k, c), median(rates[ki]))
		}
	}
}

// replaySink keeps the replay loop's results observable so the calls are
// not optimised away.
var replaySink simdef.EdgeSim

func shuffled(jobs []*clusterJob, rng *rand.Rand) []*clusterJob {
	out := make([]*clusterJob, len(jobs))
	for i, p := range rng.Perm(len(jobs)) {
		out[i] = jobs[p]
	}
	return out
}
