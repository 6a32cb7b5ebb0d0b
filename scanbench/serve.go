package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/dataset"
	"ppscan/internal/obsv"
	"ppscan/internal/server"
)

const (
	serveDataset = "webbase-sim"
	// Open-loop rates, per second. The open loop fills openShare of the
	// run and the sweep phase sweepShare; the rest is the capacity phase.
	// README.md ("Where the serve traffic figures come from") gives the
	// measurements each of these constants and zipfS was set from.
	readRate   = 10.0
	writeRate  = 1.0
	openShare  = 0.7
	sweepShare = 0.1
	// writeBatch is the number of edge pairs one POST /edges carries.
	writeBatch = 100
	// zipfS skews /cluster reads over the (ε, µ) grid.
	zipfS = 1.1
)

var (
	// serveKeys is the read grid: ε 0.10–0.40 in steps of 0.02, µ ∈ {2, 3, 5}.
	serveEps  = decGrid(10, 40, 2, 2)
	serveMus  = []int{2, 3, 5}
	serveKeys = keys(serveEps, serveMus)
	// capacityKeys never occur in the read grid and outnumber the 64-entry
	// response cache, so cycling through them misses every time.
	capacityKeys = keys(decGrid(115, 285, 10, 3), []int{2, 3, 4, 5})
	// serveOrder is the grid's popularity order, fixed; the seed draws
	// from it.
	serveOrder = rand.New(rand.NewSource(1)).Perm(len(serveKeys))
	// warmKey is the set-up's warm-up query, outside both sets.
	warmKey = key{"0.5", 4}
)

// serveState is what one serve set-up produces.
type serveState struct {
	g      *graph.Graph
	batch  []graph.EdgeOp     // the pairs writes add and delete in turn
	refs   [2]map[key]summary // per graph state: 0 = start, 1 = batch added
	hs     *http.Server
	base   string
	client *http.Client
}

// setupServe generates the graph and the write batch, records the
// reference answer of every key in both graph states, starts the server on
// a loopback listener and warms it up.
func setupServe(r *run) (*serveState, error) {
	spec, err := dataset.Get(serveDataset)
	if err != nil {
		return nil, err
	}
	g := spec.Build(1.0)
	st := &serveState{g: g, batch: absentPairs(g, writeBatch, rand.New(rand.NewSource(r.cfg.seed)))}
	d, err := graph.NewStore(g).Commit(st.batch)
	if err != nil {
		return nil, fmt.Errorf("applying the write batch: %w", err)
	}
	for i, gi := range []*graph.Graph{g, d.New} {
		st.refs[i] = map[key]summary{}
		ks := serveKeys
		if i == 0 {
			ks = append(append([]key{warmKey}, serveKeys...), capacityKeys...)
		}
		if err := references(ppscan.BuildIndex(gi, r.cfg.nproc), ks, r.cfg.nproc, st.refs[i]); err != nil {
			return nil, err
		}
	}
	srv := server.New(g, 0).WithAdmission(r.cfg.nproc, 0).WithMutations()
	st.hs, st.base, err = listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	st.client = newClient(r.cfg.nproc)
	body, err := get(st.client, st.base+"/cluster?"+warmKey.String())
	if err == nil {
		err = checkSummary(body, warmKey, st.refs[0][warmKey])
	}
	r.op(err)
	return st, nil
}

func (st *serveState) close() {
	closeServer(st.hs)
	st.client.CloseIdleConnections()
}

// absentPairs draws n distinct vertex pairs that are not edges of g.
func absentPairs(g *graph.Graph, n int, rng *rand.Rand) []graph.EdgeOp {
	nv := g.NumVertices()
	seen := map[[2]int32]bool{}
	var out []graph.EdgeOp
	for len(out) < n {
		u, v := rng.Int31n(nv), rng.Int31n(nv)
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int32{u, v}] || g.HasEdge(u, v) {
			continue
		}
		seen[[2]int32{u, v}] = true
		out = append(out, graph.EdgeOp{U: u, V: v})
	}
	return out
}

// writeState counts writes started and finished, so a request can tell
// which graph state answered it.
type writeState struct {
	started, done atomic.Int64
}

// statesSeen returns the graph states a request may have been answered
// from, given the counters read before (started0, done0) and after
// (started1) it: the exact state when no write was in flight at any point
// of the request, both states otherwise.
func statesSeen(started0, done0, started1 int64) []int64 {
	if started0 == done0 && started1 == started0 {
		return []int64{done0 % 2}
	}
	return []int64{0, 1}
}

// serveSamples collects the open loop's measurements.
type serveSamples struct {
	mu    sync.Mutex
	read  []float64 // ms from due time, successful reads
	write []float64
	sweep []float64
	late  []float64 // dispatch lateness
}

func (s *serveSamples) add(dst *[]float64, v float64) {
	s.mu.Lock()
	*dst = append(*dst, v)
	s.mu.Unlock()
}

// event is one scheduled open-loop operation; at is its due time, set
// when the run starts.
type event struct {
	due   time.Duration
	at    time.Time
	kind  byte // 'r' read, 'w' write
	k     key
	index int
}

// schedule derives the open loop's operations from rng alone. Every seed
// offers the same operation counts and the same Zipf split of reads over
// the grid; the seed decides the order of the reads, where in its time
// slot each operation falls.
func schedule(rng *rand.Rand, span time.Duration) []event {
	secs := span.Seconds()
	var reads []key
	for rank, c := range zipfCounts(int(readRate*secs), len(serveKeys), zipfS) {
		for i := 0; i < c; i++ {
			reads = append(reads, serveKeys[serveOrder[rank]])
		}
	}
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	var evs []event
	for i, due := range slots(rng, len(reads), span) {
		evs = append(evs, event{due: due, kind: 'r', k: reads[i], index: i})
	}
	for i, due := range slots(rng, int(writeRate*secs), span) {
		evs = append(evs, event{due: due, kind: 'w', index: i})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// zipfCounts splits n operations over ranks in proportion to the Zipf
// weights (rank+1)^-s, rounding by largest remainder so the counts sum to n.
func zipfCounts(n, ranks int, s float64) []int {
	w := make([]float64, ranks)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	counts := make([]int, ranks)
	frac := make([]float64, ranks)
	order := make([]int, ranks)
	left := n
	for i := range w {
		exact := float64(n) * w[i] / sum
		counts[i] = int(exact)
		frac[i] = exact - float64(counts[i])
		left -= counts[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

func runServe(r *run) error {
	cfg := r.cfg
	st, setupS, err := repeatSetup(func() (*serveState, error) { return setupServe(r) }, (*serveState).close)
	if err != nil {
		return err
	}
	defer st.close()
	if cfg.wrongRef {
		// The most popular read key and the first capacity key.
		for _, k := range []key{serveKeys[serveOrder[0]], capacityKeys[0]} {
			for i := range st.refs {
				if s, ok := st.refs[i][k]; ok {
					s.Cores++
					st.refs[i][k] = s
				}
			}
		}
	}

	total := time.Duration(cfg.seconds) * time.Second
	openSpan := time.Duration(float64(total) * openShare)
	rng := rand.New(rand.NewSource(cfg.seed))
	evs := schedule(rng, openSpan)

	m0, err := scrape(st.client, st.base)
	if err != nil {
		return err
	}
	var smp serveSamples
	var ws writeState
	writes := make(chan event, len(evs)) // never blocks the dispatcher
	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for ev := range writes {
			st.write(r, &ws, &smp, ev)
		}
	}()
	start := time.Now()
	for _, ev := range evs {
		ev.at = start.Add(ev.due)
		time.Sleep(time.Until(ev.at))
		smp.add(&smp.late, float64(time.Since(ev.at))/1e6)
		switch ev.kind {
		case 'w':
			writes <- ev
		case 'r':
			wg.Add(1)
			go func(ev event) {
				defer wg.Done()
				st.read(r, &ws, &smp, ev)
			}(ev)
		}
	}
	close(writes)
	<-writerDone
	wg.Wait()
	m1, err := scrape(st.client, st.base)
	if err != nil {
		return err
	}

	// Sweep phase: one client; each sweep follows a write, so the cache
	// holds none of its ε and the graph state is known. Sweeps run apart
	// from the open loop: each holds both cores for a few hundred ms, and
	// inside the loop they set the read tail.
	sweepEnd := start.Add(time.Duration(float64(total) * (openShare + sweepShare)))
	for i := 0; i == 0 || time.Now().Before(sweepEnd); i++ {
		st.write(r, &ws, nil, event{at: time.Now(), index: int(ws.done.Load())})
		st.sweep(r, &ws, &smp, event{at: time.Now(), k: key{mu: serveMus[rng.Intn(len(serveMus))]}})
	}

	// The capacity phase starts from the start state, which its references
	// describe.
	if ws.done.Load()%2 == 1 {
		st.write(r, &ws, nil, event{at: time.Now(), index: int(ws.done.Load())})
	}
	capCompleted, capElapsed := st.capacity(r, start.Add(total))
	m2, err := scrape(st.client, st.base)
	if err != nil {
		return err
	}

	r.setE2E("setup_s", setupS, setupReps)
	r.setE2E("primary_ms", median(smp.read), len(smp.read))
	r.setE2E("secondary_ms", quantile(smp.read, 0.9), len(smp.read))
	r.print("read_p50_ms", median(smp.read), "ms", len(smp.read))
	r.print(percentileName("read", len(smp.read), 0.9), quantile(smp.read, 0.9), "ms", len(smp.read))
	r.print(percentileName("write", len(smp.write), 0.5), median(smp.write), "ms", len(smp.write))
	r.print(percentileName("sweep", len(smp.sweep), 0.5), median(smp.sweep), "ms", len(smp.sweep))
	capRPS := ratio(float64(capCompleted), capElapsed.Seconds())
	r.print("capacity_rps", capRPS, "1/s", capCompleted)
	r.print("loadgen_late_p99_ms", quantile(smp.late, 0.99), "ms", len(smp.late))

	if cfg.trace {
		r.setLayer("serve.write_p50_ms", median(smp.write))
		r.setLayer("serve.sweep_p50_ms", median(smp.sweep))
		r.setLayer("serve.capacity_rps", capRPS)
		hits, misses := delta(m0, m1, obsv.MetricCacheHits), delta(m0, m1, obsv.MetricCacheMisses)
		r.setLayer("server.cache_hit_frac", ratio(hits, hits+misses))
		r.setLayer("server.invalidations_per_write",
			ratio(delta(m0, m1, obsv.MetricCacheInvalidations), delta(m0, m1, obsv.MetricServerMutationBatches)))
		computeN := delta(m0, m2, obsv.MetricServerComputeNs, "count")
		computeSum := delta(m0, m2, obsv.MetricServerComputeNs, "sum")
		r.setLayer("server.compute_ms", nsToMs(ratio(computeSum, computeN)))
		r.setLayer("server.outside_engine_ms",
			nsToMs(ratio(delta(m0, m2, obsv.MetricHTTPLatencyPrefix+"cluster", "sum")-computeSum, computeN)))
		r.setLayer("server.admission_rejects", delta(m0, m2, obsv.MetricAdmissionRejected))
		pHits, pMisses := delta(m0, m2, obsv.MetricWorkspaceHits), delta(m0, m2, obsv.MetricWorkspaceMisses)
		r.setLayer("engine.pool_hit_frac", ratio(pHits, pHits+pMisses))
		r.setLayer("graph.commit_ms", nsToMs(ratio(delta(m0, m1, obsv.MetricServerMutationCommitNs, "sum"),
			delta(m0, m1, obsv.MetricServerMutationCommitNs, "count"))))
		r.setLayer("loadgen.late_p99_ms", quantile(smp.late, 0.99))
		// Every serve figure above comes from always-on /metrics sums or
		// from timing done after the load; no probe runs during it.
		r.setLayer("trace_overhead_frac", 0)
		r.print("trace_overhead_frac", 0, "ratio", 0)
		build, query := timeIndex(st.g, r.cfg.nproc)
		r.setLayer("gsindex.build_ms", build)
		r.setLayer("gsindex.query_ms", query)
	}
	r.setE2E("heap_mb", heapMB(), 0)
	return nil
}

// read issues one /cluster read and checks it against the graph state(s)
// it may have seen. Latency runs from the due time, so time spent waiting
// for one of the client's connections counts.
func (st *serveState) read(r *run, ws *writeState, smp *serveSamples, ev event) {
	done0, started0 := ws.done.Load(), ws.started.Load()
	body, err := get(st.client, st.base+"/cluster?"+ev.k.String())
	end := time.Now()
	started1 := ws.started.Load()
	if err == nil {
		var want []summary
		for _, s := range statesSeen(started0, done0, started1) {
			want = append(want, st.refs[s][ev.k])
		}
		err = checkSummary(body, ev.k, want...)
	}
	r.op(err)
	if err != nil {
		return
	}
	smp.add(&smp.read, float64(end.Sub(ev.at))/1e6)
}

// write posts the batch as additions (even-numbered writes) or deletions
// (odd-numbered writes) and checks that every pair took effect. smp is nil
// for the untimed writes outside the open loop.
func (st *serveState) write(r *run, ws *writeState, smp *serveSamples, ev event) {
	op := "add"
	if ev.index%2 == 1 {
		op = "del"
	}
	var buf bytes.Buffer
	for _, e := range st.batch {
		fmt.Fprintf(&buf, "{\"u\":%d,\"v\":%d,\"op\":%q}\n", e.U, e.V, op)
	}
	ws.started.Add(1)
	req, err := http.NewRequest(http.MethodPost, st.base+"/edges", &buf)
	var body []byte
	if err == nil {
		body, err = do(st.client, req)
	}
	end := time.Now()
	ws.done.Add(1)
	if err == nil {
		var resp struct {
			Added   int `json:"added"`
			Removed int `json:"removed"`
		}
		if err = json.Unmarshal(body, &resp); err == nil {
			got, want := resp.Added, len(st.batch)
			if op == "del" {
				got = resp.Removed
			}
			if got != want {
				err = fmt.Errorf("POST /edges %s #%d: %d of %d pairs took effect", op, ev.index, got, want)
			}
		}
	}
	r.op(err)
	if err == nil && smp != nil {
		smp.add(&smp.write, float64(end.Sub(ev.at))/1e6)
	}
}

// sweep streams one /cluster/sweep over the read grid's ε range and checks
// that every line equals the reference of its ε, all from one graph state.
func (st *serveState) sweep(r *run, ws *writeState, smp *serveSamples, ev event) {
	mu := ev.k.mu
	url := fmt.Sprintf("%s/cluster/sweep?eps=%s:%s:0.02&mu=%d", st.base, serveEps[0], serveEps[len(serveEps)-1], mu)
	done0, started0 := ws.done.Load(), ws.started.Load()
	body, err := get(st.client, url)
	end := time.Now()
	started1 := ws.started.Load()
	if err == nil {
		err = st.checkSweep(body, mu, statesSeen(started0, done0, started1))
	}
	r.op(err)
	if err == nil {
		smp.add(&smp.sweep, float64(end.Sub(ev.at))/1e6)
	}
}

// sweepLine is one NDJSON line of a sweep: a /cluster summary for one ε,
// or a terminal error.
type sweepLine struct {
	Eps string `json:"eps"`
	summary
	Error string `json:"error"`
}

func (st *serveState) checkSweep(body []byte, mu int, states []int64) error {
	var lines []sweepLine
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("sweep mu=%d: decoding line %d: %w", mu, len(lines)+1, err)
		}
		if l.Error != "" {
			return fmt.Errorf("sweep mu=%d: error line: %s", mu, l.Error)
		}
		lines = append(lines, l)
	}
	if len(lines) != len(serveEps) {
		return fmt.Errorf("sweep mu=%d: %d lines, want %d", mu, len(lines), len(serveEps))
	}
	for _, s := range states {
		ok := true
		for i, l := range lines {
			k := key{serveEps[i], mu}
			if l.Eps != k.eps || l.summary != st.refs[s][k] {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("sweep mu=%d: lines do not match the /cluster reference of any one graph state", mu)
}

// capacity runs nproc closed-loop clients sending cache-missing reads
// until the deadline and returns the completed (correct) reads and the
// phase's duration.
func (st *serveState) capacity(r *run, deadline time.Time) (int, time.Duration) {
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := capacityKeys[int(next.Add(1)-1)%len(capacityKeys)]
				body, err := get(st.client, st.base+"/cluster?"+k.String())
				if err == nil {
					err = checkSummary(body, k, st.refs[0][k])
				}
				r.op(err)
				if err == nil {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(completed.Load()), time.Since(start)
}

// timeIndex times GS*-Index builds and warm single-query extractions on
// the serve graph, in ms (medians).
func timeIndex(g *graph.Graph, workers int) (buildMs, queryMs float64) {
	var builds []float64
	var ix *ppscan.Index
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		ix = ppscan.BuildIndex(g, workers)
		builds = append(builds, float64(time.Since(t0))/1e6)
	}
	ws := ppscan.NewWorkspace()
	defer ws.Close()
	var queries []float64
	for i, k := range append([]key{warmKey}, serveKeys...) {
		t0 := time.Now()
		_, _ = ppscan.QueryIndexWorkspace(context.Background(), ix, k.eps, k.mu, ws)
		if i > 0 {
			queries = append(queries, float64(time.Since(t0))/1e6)
		}
	}
	return median(builds), median(queries)
}
