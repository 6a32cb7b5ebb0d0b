package shard

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ppscan/graph"
	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/scan"
	"ppscan/internal/simdef"
)

// distRun runs the dist-scan engine with p partitions (p < 1: the
// engine's default).
func distRun(t *testing.T, g *graph.Graph, th simdef.Threshold, p int) *result.Result {
	t.Helper()
	res, err := distEngine{}.RunContext(context.Background(), g, th, engine.Options{Workers: p}, nil)
	if err != nil {
		t.Fatalf("dist-scan p=%d: %v", p, err)
	}
	return res
}

func TestDistGroundTruthCorpus(t *testing.T) {
	for _, tc := range algotest.Corpus() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, th := range algotest.Params() {
				r := distRun(t, tc.G, th, 4)
				if err := algotest.CheckGroundTruth(tc.G, r, th); err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
			}
		})
	}
}

func TestDistMatchesSCANQuick(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		g := algotest.RandomGraph(seed)
		th := algotest.RandomThreshold(seed)
		want := scan.Run(g, th, scan.Options{Kernel: intersect.Merge})
		got := distRun(t, g, th, int(pRaw%7)+1)
		return result.Equal(want, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDistPartitionCountIndependence(t *testing.T) {
	g := algotest.RandomGraph(111)
	th, _ := simdef.NewThreshold("0.4", 3)
	base := distRun(t, g, th, 1)
	for _, p := range []int{2, 3, 8, 64} {
		r := distRun(t, g, th, p)
		if err := result.Equal(base, r); err != nil {
			t.Errorf("partitions=%d changes output: %v", p, err)
		}
	}
}

func TestDistCommunicationOverheadMeasured(t *testing.T) {
	// The §3.3 claim the engine makes measurable: multi-partition runs
	// pay communication that a single partition does not.
	g := algotest.RandomGraph(113)
	if g.NumEdges() < 100 {
		t.Skip("graph too small to force cross-partition edges")
	}
	th, _ := simdef.NewThreshold("0.4", 3)
	one := distRun(t, g, th, 1)
	if one.Stats.CommBytes != 0 {
		t.Errorf("single partition should not communicate, got %d bytes", one.Stats.CommBytes)
	}
	four := distRun(t, g, th, 4)
	if four.Stats.CommBytes == 0 {
		t.Errorf("4 partitions communicated 0 bytes; boundary exchange broken")
	}
	eight := distRun(t, g, th, 8)
	if eight.Stats.CommBytes < four.Stats.CommBytes {
		t.Errorf("more partitions should not communicate less: p=4 %d bytes, p=8 %d bytes",
			four.Stats.CommBytes, eight.Stats.CommBytes)
	}
}

func TestPartitionBalance(t *testing.T) {
	g := algotest.RandomGraph(115)
	p := 4
	bounds := Partition(g, p)
	if bounds[0] != 0 || bounds[p] != g.NumVertices() {
		t.Fatalf("bounds do not cover the vertex range: %v", bounds)
	}
	for w := 0; w < p; w++ {
		if bounds[w] > bounds[w+1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
	}
	// Degree-sum balance within a reasonable factor.
	var sums []int64
	for w := 0; w < p; w++ {
		var s int64
		for u := bounds[w]; u < bounds[w+1]; u++ {
			s += int64(g.Degree(u)) + 1
		}
		sums = append(sums, s)
	}
	var maxS, minS int64 = 0, 1 << 62
	for _, s := range sums {
		if s > maxS {
			maxS = s
		}
		if s < minS {
			minS = s
		}
	}
	if minS > 0 && maxS > 4*minS {
		t.Errorf("partition imbalance: %v", sums)
	}
}

func TestDistStats(t *testing.T) {
	g := algotest.RandomGraph(117)
	th, _ := simdef.NewThreshold("0.5", 3)
	r := distRun(t, g, th, 3)
	if !strings.HasPrefix(r.Stats.Algorithm, "dist-scan(") {
		t.Errorf("algorithm = %s", r.Stats.Algorithm)
	}
	if r.Stats.Workers != 3 || r.Stats.Total <= 0 {
		t.Errorf("stats = %+v", r.Stats)
	}
	if r.Stats.CompSimCalls != g.NumEdges() {
		t.Errorf("calls = %d, want |E| = %d", r.Stats.CompSimCalls, g.NumEdges())
	}
}

func TestDistDefaultsAndDegenerate(t *testing.T) {
	g := algotest.Corpus()[0].G // empty graph
	th, _ := simdef.NewThreshold("0.5", 2)
	r := distRun(t, g, th, 0) // default partitions
	if len(r.Roles) != 0 {
		t.Errorf("empty graph roles = %v", r.Roles)
	}
	// More partitions than vertices.
	g2 := algotest.Corpus()[3].G // triangle
	r2 := distRun(t, g2, th, 50)
	if err := algotest.CheckGroundTruth(g2, r2, th); err != nil {
		t.Fatal(err)
	}
}

func TestDistRunContextCancelMidSuperstep(t *testing.T) {
	g := gen.Roll(60_000, 32, 11)
	th, err := simdef.NewThreshold("0.5", 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	res, err := distEngine{}.RunContext(ctx, g, th, engine.Options{Workers: 4}, nil)
	if res != nil {
		t.Fatalf("cancelled run returned a result: %+v", res.Stats)
	}
	var pe *result.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("cancelled run returned %T (%v), want *result.PartialError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(%v, context.Canceled) = false", err)
	}
	if !slices.Contains(Rounds, pe.Phase) {
		t.Errorf("aborted round %q is not one of %v", pe.Phase, Rounds)
	}
	if !strings.Contains(pe.Stats.Algorithm, "dist-scan") {
		t.Errorf("partial stats algorithm = %q, want dist-scan", pe.Stats.Algorithm)
	}
	if pe.Stats.Workers != 4 {
		t.Errorf("partial stats workers = %d, want 4", pe.Stats.Workers)
	}
	if pe.Stats.Total <= 0 {
		t.Errorf("partial stats total = %v, want > 0", pe.Stats.Total)
	}
}

func TestDistRunContextDeadline(t *testing.T) {
	g := gen.Roll(60_000, 32, 12)
	th, err := simdef.NewThreshold("0.6", 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = distEngine{}.RunContext(ctx, g, th, engine.Options{Workers: 4}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(%v, context.DeadlineExceeded) = false", err)
	}
}

// TestDistRunContextCompletesUncancelled guards that a Background context
// does not perturb results.
func TestDistRunContextCompletesUncancelled(t *testing.T) {
	g := gen.Roll(2_000, 8, 13)
	th, err := simdef.NewThreshold("0.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := distEngine{}.RunContext(context.Background(), g, th, engine.Options{Workers: 4}, nil)
	if err != nil {
		t.Fatalf("RunContext(Background): %v", err)
	}
	want := scan.Run(g, th, scan.Options{Kernel: intersect.Merge})
	if err := result.Equal(want, res); err != nil {
		t.Fatalf("RunContext result differs from the reference: %v", err)
	}
}

// TestDistStallTimeout: StallTimeout is the in-memory per-round deadline.
// A round whose every attempt overruns it fails as a stall, well before
// the straggling worker wakes up.
func TestDistStallTimeout(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := gen.Roll(400, 8, 7)
	th := mustTh(t, "0.5", 3)
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActDelay, Start: 1, Every: 1, Delay: 2 * time.Second},
	}})
	start := time.Now()
	_, err := distEngine{}.RunContext(context.Background(), g, th,
		engine.Options{Workers: 2, StallTimeout: 20 * time.Millisecond}, nil)
	took := time.Since(start)
	fault.Disable()
	if !errors.Is(err, result.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	var pe *result.PartialError
	if !errors.As(err, &pe) || pe.Phase != RoundSim {
		t.Errorf("stall should be a PartialError naming the sim round, got %v", err)
	}
	if took >= 2*time.Second {
		t.Errorf("stall took %v: the coordinator waited for the straggler", took)
	}
}

// TestDistRecordsShardCounters: a dist-scan run is a coordinator query, so
// it records the shard.* round and RPC counters into the engine registry,
// but leaves the HTTP fleet's replica gauges alone.
func TestDistRecordsShardCounters(t *testing.T) {
	reg := obsv.New()
	g := algotest.RandomGraph(119)
	th := mustTh(t, "0.4", 3)
	if _, err := (distEngine{}).RunContext(context.Background(), g, th,
		engine.Options{Workers: 3, Registry: reg}, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obsv.MetricShardRPCs).Value(); got != int64(3*len(Rounds)) {
		t.Errorf("shard.rpcs = %d, want %d", got, 3*len(Rounds))
	}
	for _, r := range Rounds {
		if reg.Counter(obsv.MetricShardRoundNsPrefix+r).Value() <= 0 {
			t.Errorf("shard.round_ns.%s not recorded", r)
		}
	}
	if got := reg.Gauge(obsv.MetricShardHealthy).Value(); got != 0 {
		t.Errorf("in-memory fleet wrote shard.replicas_healthy = %d", got)
	}
}

// TestTransportEquivalence runs the same (graph, ε, µ) through an in-memory
// fleet and an HTTP fleet of the same size: the two transports must agree
// bit for bit, and both with the sequential reference.
func TestTransportEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range algotest.Corpus() {
		for _, p := range []int{1, 2, 3, 8} {
			c := newFleet(t, tc.G, p, 1).coord(t, tc.G)
			for _, th := range algotest.Params() {
				mem, _, err := newLocalCoordinator(tc.G, p, intersect.MergeEarly, 0, obsv.NewNop()).run(ctx, th)
				if err != nil {
					t.Fatalf("%s p=%d eps=%s mu=%d in-memory: %v", tc.Name, p, th.Eps, th.Mu, err)
				}
				wire, err := c.Run(ctx, th.Eps.String(), th.Mu)
				if err != nil {
					t.Fatalf("%s p=%d eps=%s mu=%d HTTP: %v", tc.Name, p, th.Eps, th.Mu, err)
				}
				if err := result.Equal(mem, wire); err != nil {
					t.Fatalf("%s p=%d eps=%s mu=%d transports disagree: %v", tc.Name, p, th.Eps, th.Mu, err)
				}
				if err := result.Equal(reference(tc.G, th), wire); err != nil {
					t.Fatalf("%s p=%d eps=%s mu=%d HTTP vs reference: %v", tc.Name, p, th.Eps, th.Mu, err)
				}
			}
		}
	}
}
