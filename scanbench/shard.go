package main

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ppscan"
	"ppscan/graph"
	"ppscan/internal/dataset"
	"ppscan/internal/obsv"
	"ppscan/internal/server"
	"ppscan/internal/shard"
)

// shardCount is the fleet size of the serve-shard workload.
const shardCount = 2

var (
	// shardRounds are the coordinator's rounds, in execution order.
	shardRounds = shard.Rounds
	// shardKeys outnumber both the server's response cache (64) and each
	// worker's state cache (4), so every query runs all four rounds.
	shardKeys = keys(decGrid(10, 49, 1, 2), []int{2, 3, 5})
)

// workerProbe times every step RPC a worker's handler serves while on is
// set, per worker, in arrival order.
type workerProbe struct {
	on    atomic.Bool
	mu    sync.Mutex
	calls [shardCount][]time.Duration
}

func (p *workerProbe) wrap(worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !p.on.Load() || req.URL.Path != shard.PathStep {
			h.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t0)
		p.mu.Lock()
		p.calls[worker] = append(p.calls[worker], d)
		p.mu.Unlock()
	})
}

// take returns and clears the recorded calls.
func (p *workerProbe) take() [shardCount][]time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.calls
	p.calls = [shardCount][]time.Duration{}
	return out
}

// shardState is what one serve-shard set-up produces.
type shardState struct {
	g       *graph.Graph
	refs    map[key]summary
	probe   *workerProbe
	workers []*http.Server
	coord   *shard.Coordinator
	front   *http.Server
	base    string
	client  *http.Client
}

// setupServeShard generates the graph, records the reference answer of
// every key, starts two shard workers and the sharded server on loopback
// listeners, and warms the fleet up with one query.
func setupServeShard(r *run) (*shardState, error) {
	spec, err := dataset.Get(serveDataset)
	if err != nil {
		return nil, err
	}
	st := &shardState{g: spec.Build(1.0), refs: map[key]summary{}, probe: &workerProbe{}}
	ks := append([]key{warmKey}, shardKeys...)
	if err := references(ppscan.BuildIndex(st.g, r.cfg.nproc), ks, r.cfg.nproc, st.refs); err != nil {
		return nil, err
	}
	var fleet [][]string
	for i := 0; i < shardCount; i++ {
		w, err := shard.NewWorker(st.g, shard.WorkerOptions{Shard: i, Shards: shardCount})
		if err != nil {
			st.close()
			return nil, err
		}
		hs, base, err := listen(st.probe.wrap(i, w.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, hs)
		fleet = append(fleet, []string{base})
	}
	st.coord, err = shard.NewCoordinator(st.g, shard.Options{Shards: fleet})
	if err != nil {
		st.close()
		return nil, err
	}
	srv := server.New(st.g, 0).WithAdmission(r.cfg.nproc, 0).WithMutations().WithShards(st.coord)
	st.front, st.base, err = listen(srv.Handler())
	if err != nil {
		st.close()
		return nil, err
	}
	st.client = newClient(r.cfg.nproc)
	body, err := get(st.client, st.base+"/cluster?"+warmKey.String())
	if err == nil {
		err = checkSummary(body, warmKey, st.refs[warmKey])
	}
	r.op(err)
	return st, nil
}

// close stops the front server, the coordinator and the workers, in that
// order; it tolerates a partial set-up.
func (st *shardState) close() {
	if st.front != nil {
		closeServer(st.front)
		st.client.CloseIdleConnections()
	}
	if st.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st.coord.Shutdown(ctx)
		cancel()
	}
	for _, hs := range st.workers {
		closeServer(hs)
	}
}

// shardCounters are the coordinator's registry counters the workload reads.
type shardCounters struct {
	rpcs, bytes, retries, queries int64
	roundNs                       []int64
}

func readShardCounters(reg *obsv.Registry) shardCounters {
	c := shardCounters{
		rpcs:    reg.Counter(obsv.MetricShardRPCs).Value(),
		bytes:   reg.Counter(obsv.MetricShardCommBytes).Value(),
		retries: reg.Counter(obsv.MetricShardRetries).Value(),
		queries: reg.Counter(obsv.MetricShardQueries).Value(),
	}
	for _, rd := range shardRounds {
		c.roundNs = append(c.roundNs, reg.Counter(obsv.MetricShardRoundNsPrefix+rd).Value())
	}
	return c
}

func runServeShard(r *run) error {
	cfg := r.cfg
	st, setupS, err := repeatSetup(func() (*shardState, error) { return setupServeShard(r) }, (*shardState).close)
	if err != nil {
		return err
	}
	defer st.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(len(shardKeys))
	if cfg.wrongRef {
		k := shardKeys[order[0]]
		s := st.refs[k]
		s.Cores++
		st.refs[k] = s
	}

	// The coordinator records into the process-global registry; the
	// benchmark's single client is its only user, so deltas around a query
	// belong to that query.
	reg := obsv.Default()
	c0 := readShardCounters(reg)
	var lat, latTraced []float64
	roundMs := make([]float64, len(shardRounds))
	workerMs := make([]float64, len(shardRounds))
	tracedQueries := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := shardKeys[order[i%len(order)]]
		traced := cfg.trace && i%2 == 1
		var before shardCounters
		if traced {
			before = readShardCounters(reg)
			st.probe.on.Store(true)
		}
		t0 := time.Now()
		body, err := get(st.client, st.base+"/cluster?"+k.String())
		d := float64(time.Since(t0)) / 1e6
		st.probe.on.Store(false)
		if err == nil {
			err = checkSummary(body, k, st.refs[k])
		}
		r.op(err)
		if err != nil {
			continue
		}
		if !traced {
			lat = append(lat, d)
			continue
		}
		latTraced = append(latTraced, d)
		after := readShardCounters(reg)
		calls := st.probe.take()
		if after.retries != before.retries || !onePerRound(calls) {
			continue // round attribution needs exactly one step per worker per round
		}
		tracedQueries++
		for j := range shardRounds {
			roundMs[j] += float64(after.roundNs[j]-before.roundNs[j]) / 1e6
			var slowest time.Duration
			for w := range calls {
				if calls[w][j] > slowest {
					slowest = calls[w][j]
				}
			}
			workerMs[j] += float64(slowest) / 1e6
		}
	}
	c1 := readShardCounters(reg)

	r.setE2E("setup_s", setupS, setupReps)
	r.setE2E("primary_ms", median(lat), len(lat))
	r.setE2E("secondary_ms", quantile(lat, 0.9), len(lat))
	r.print("shard_p50_ms", median(lat), "ms", len(lat))
	r.print(percentileName("shard", len(lat), 0.9), quantile(lat, 0.9), "ms", len(lat))
	queries := float64(c1.queries - c0.queries)
	r.print("shard_rpcs_per_query", ratio(float64(c1.rpcs-c0.rpcs), queries), "count", int(queries))

	if cfg.trace {
		var transport float64
		for j, rd := range shardRounds {
			rm := ratio(roundMs[j], float64(tracedQueries))
			wm := ratio(workerMs[j], float64(tracedQueries))
			r.setLayer("shard.round_ms."+rd, rm)
			r.setLayer("shard.worker_ms."+rd, wm)
			transport += rm - wm
		}
		r.setLayer("shard.transport_ms", transport)
		r.setLayer("shard.rpcs_per_query", ratio(float64(c1.rpcs-c0.rpcs), queries))
		r.setLayer("shard.bytes_per_query", ratio(float64(c1.bytes-c0.bytes), queries))
		r.setLayer("shard.retries", float64(c1.retries-c0.retries))
		overhead := ratio(median(latTraced), median(lat)) - 1
		r.setLayer("trace_overhead_frac", overhead)
		r.print("trace_overhead_frac", overhead, "ratio", len(latTraced))
		r.print("shard_traced_queries", float64(tracedQueries), "count", 0)
	}
	r.setE2E("heap_mb", heapMB(), 0)
	return nil
}

// onePerRound reports whether every worker served exactly one step per
// round, so the i-th call is round i.
func onePerRound(calls [shardCount][]time.Duration) bool {
	for _, c := range calls {
		if len(c) != len(shardRounds) {
			return false
		}
	}
	return true
}
