package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ppscan/graph"
	"ppscan/internal/engine"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// The dist-scan engine's fixed round budget: three attempts per round per
// shard, backing off from 1ms, doubling, capped at 50ms.
const (
	distMaxAttempts     = 3
	distRetryBackoff    = time.Millisecond
	distMaxRetryBackoff = 50 * time.Millisecond
	// distPartitions is the partition count when engine.Options.Workers
	// is unset.
	distPartitions = 4
)

// distEngine is the "dist-scan" engine: the coordinator's rounds over an
// in-memory fleet, one single-goroutine Worker per partition, all on the
// run's own snapshot. engine.Options.Workers selects the partition count
// and StallTimeout the per-round deadline. The workspace is unused: every
// Worker owns the similarity state of its range.
type distEngine struct{}

func (distEngine) Name() string { return "dist-scan" }

func (distEngine) RunContext(ctx context.Context, g *graph.Graph, th simdef.Threshold, opt engine.Options, _ *engine.Workspace) (*result.Result, error) {
	kern := intersect.MergeEarly
	if opt.Kernel != "" {
		k, err := intersect.ParseKind(opt.Kernel)
		if err != nil {
			return nil, err
		}
		kern = k
	}
	p := opt.Workers
	if p < 1 {
		p = distPartitions
	}
	if n := int(g.NumVertices()); p > n && n > 0 {
		p = n
	}
	start := time.Now()
	algo := fmt.Sprintf("dist-scan(p=%d)", p)
	res, round, err := newLocalCoordinator(g, p, kern, opt.StallTimeout, opt.Registry).run(ctx, th)
	if err != nil {
		return nil, &result.PartialError{
			Stats: result.Stats{Algorithm: algo, Workers: p, Total: time.Since(start)},
			Phase: round,
			Err:   distCause(err),
		}
	}
	res.Stats.Algorithm = algo
	return res, nil
}

// newLocalCoordinator builds a coordinator over an in-memory fleet of p
// Workers on g. The fleet shares the run's snapshot and lives for one
// run, so it has no heartbeat loop and never needs a sync or a drain.
func newLocalCoordinator(g *graph.Graph, p int, kern intersect.Kind, stall time.Duration, reg *obsv.Registry) *Coordinator {
	workerReg := obsv.NewNop()
	fleet := make([][]*replica, p)
	for s := range fleet {
		w, err := NewWorker(g, WorkerOptions{Shard: s, Shards: p, Workers: 1, Kernel: kern, Registry: workerReg})
		if err != nil {
			panic(err) // unreachable: 0 <= s < p
		}
		fleet[s] = []*replica{{addr: fmt.Sprintf("local:%d", s), local: w}}
	}
	opt := Options{
		HeartbeatEvery:  -1,
		MaxAttempts:     distMaxAttempts,
		RetryBackoff:    distRetryBackoff,
		MaxRetryBackoff: distMaxRetryBackoff,
		Registry:        reg,
	}
	opt.setDefaults()
	opt.StepTimeout = stall // zero: no per-round deadline
	return newCoordinator(g, opt, fleet)
}

// distCause unwraps a failed in-memory query to the cause every engine
// reports: the last failure of the shard that ran out of attempts, with a
// round that kept missing its deadline reported as a stall.
func distCause(err error) error {
	var ua *ShardUnavailableError
	if errors.As(err, &ua) {
		err = ua.Err
	}
	var to *ShardTimeoutError
	if errors.As(err, &to) {
		return fmt.Errorf("%w: %v", result.ErrStalled, to)
	}
	return err
}

func init() { engine.Register(distEngine{}) }
