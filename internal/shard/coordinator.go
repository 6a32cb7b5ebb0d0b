package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
	"ppscan/internal/unionfind"
)

// Coordinator timing defaults. Production-shaped: generous enough that a
// loaded worker is not misdiagnosed, small enough that a dead one is
// detected within a few heartbeat periods. Chaos suites override all of
// them downward.
const (
	DefaultStepTimeout      = 30 * time.Second
	DefaultHeartbeatTimeout = 2 * time.Second
	DefaultHeartbeatEvery   = 1 * time.Second
	DefaultMaxAttempts      = 4
	DefaultRetryBackoff     = 25 * time.Millisecond
	DefaultMaxRetryBackoff  = 1 * time.Second
	// DefaultSuspectAfter and DefaultDeadAfter are consecutive-failure
	// thresholds for the health state machine.
	DefaultSuspectAfter = 1
	DefaultDeadAfter    = 3
)

// HealthState is a replica's coordinator-side liveness classification.
type HealthState int32

const (
	// Healthy replicas are preferred RPC targets.
	Healthy HealthState = iota
	// Suspect replicas failed recently; they are still tried, after
	// healthy ones, because one failure is often a blip.
	Suspect
	// Dead replicas failed repeatedly; they are tried last, and only the
	// heartbeat loop can promote them back (rejoin).
	Dead
)

// String returns the state's stable name (surfaced in /healthz).
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int32(h))
}

// Options configures a Coordinator.
type Options struct {
	// Shards lists each shard's replica base URLs ("http://host:port"),
	// outer index = shard id. Every shard needs at least one replica.
	Shards [][]string
	// StepTimeout is the per-RPC deadline for superstep rounds.
	StepTimeout time.Duration
	// HeartbeatTimeout is the per-RPC deadline for health probes.
	HeartbeatTimeout time.Duration
	// HeartbeatEvery is the probe period. 0 defaults; < 0 disables the
	// background loop (tests drive HeartbeatNow directly).
	HeartbeatEvery time.Duration
	// MaxAttempts bounds RPC attempts per round per shard, across
	// replicas.
	MaxAttempts int
	// RetryBackoff and MaxRetryBackoff shape the capped exponential
	// backoff between attempts.
	RetryBackoff    time.Duration
	MaxRetryBackoff time.Duration
	// SuspectAfter and DeadAfter are the consecutive-failure thresholds
	// of the health state machine.
	SuspectAfter int
	DeadAfter    int
	// Client is the HTTP client for all RPCs (default http.DefaultClient
	// semantics with a fresh Transport so worker restarts don't inherit
	// poisoned keep-alive connections).
	Client *http.Client
	// Registry receives the shard.* metrics (default obsv.Default()).
	Registry *obsv.Registry
	// Logf receives one line per noteworthy fleet event (health
	// transitions, failovers, syncs). nil silences.
	Logf func(format string, args ...any)
}

// replica is one worker endpoint and its coordinator-side health record.
// Its transport is HTTP/gob to addr, or — when local is set — a direct
// call into an in-process Worker (see stepLocal).
type replica struct {
	addr  string
	local *Worker

	mu       sync.Mutex
	state    HealthState
	fails    int    // consecutive failures
	epoch    uint64 // last epoch reported by a heartbeat
	lastBeat time.Time
	steps    int64
}

// ReplicaStatus is one replica's row in FleetStatus (JSON in /healthz).
type ReplicaStatus struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	Epoch uint64 `json:"epoch"`
	// LastHeartbeatMS is milliseconds since the last successful
	// heartbeat; -1 before the first one.
	LastHeartbeatMS int64 `json:"last_heartbeat_ms"`
	Steps           int64 `json:"steps"`
}

// ShardStatus is one shard's row in FleetStatus.
type ShardStatus struct {
	Shard    int             `json:"shard"`
	Lo       int32           `json:"lo"`
	Hi       int32           `json:"hi"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// FleetStatus is the coordinator's /healthz contribution.
type FleetStatus struct {
	Shards  int           `json:"shards"`
	Epoch   uint64        `json:"epoch"`
	Healthy int           `json:"replicas_healthy"`
	Suspect int           `json:"replicas_suspect"`
	Dead    int           `json:"replicas_dead"`
	Fleet   []ShardStatus `json:"fleet"`
}

// coordSnap is the coordinator's current graph generation.
type coordSnap struct {
	g      *graph.Graph
	epoch  uint64
	bounds []int32
}

// Coordinator drives superstep rounds across a fleet of shard workers,
// containing per-shard faults with retries, failover, health tracking and
// epoch catch-up. One Coordinator serves many concurrent queries.
type Coordinator struct {
	opt    Options
	client *http.Client
	snap   atomic.Pointer[coordSnap]
	fleet  [][]*replica

	queryID atomic.Uint64

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	rpcs, rpcNs, retriesC, failovers *obsv.Counter
	timeouts, crashes, rejectedC     *obsv.Counter
	heartbeats, rejoins, syncsC      *obsv.Counter
	queries, unavailable, commBytes  *obsv.Counter
	gHealthy, gSuspect, gDead        *obsv.Gauge
	roundNs                          map[string]*obsv.Counter
}

// NewCoordinator builds a coordinator over g for the given fleet and
// starts the heartbeat loop (unless opt.HeartbeatEvery < 0).
func NewCoordinator(g *graph.Graph, opt Options) (*Coordinator, error) {
	if len(opt.Shards) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard")
	}
	fleet := make([][]*replica, len(opt.Shards))
	for i, reps := range opt.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", i)
		}
		for _, addr := range reps {
			fleet[i] = append(fleet[i], &replica{addr: addr})
		}
	}
	opt.setDefaults()
	return newCoordinator(g, opt, fleet), nil
}

// setDefaults fills every unset timing, budget and threshold.
func (opt *Options) setDefaults() {
	if opt.StepTimeout <= 0 {
		opt.StepTimeout = DefaultStepTimeout
	}
	if opt.HeartbeatTimeout <= 0 {
		opt.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if opt.HeartbeatEvery == 0 {
		opt.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if opt.MaxAttempts < 1 {
		opt.MaxAttempts = DefaultMaxAttempts
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = DefaultRetryBackoff
	}
	if opt.MaxRetryBackoff <= 0 {
		opt.MaxRetryBackoff = DefaultMaxRetryBackoff
	}
	if opt.SuspectAfter < 1 {
		opt.SuspectAfter = DefaultSuspectAfter
	}
	if opt.DeadAfter <= opt.SuspectAfter {
		opt.DeadAfter = opt.SuspectAfter + DefaultDeadAfter - DefaultSuspectAfter
	}
	if opt.Registry == nil {
		opt.Registry = obsv.Default()
	}
}

// newCoordinator wires a coordinator over an already-built fleet. The
// fleet-health gauges describe the HTTP fleet only: an in-memory fleet
// writes them to a no-op registry, so a dist-scan run never overwrites
// the serving tier's gauges in the same process.
func newCoordinator(g *graph.Graph, opt Options, fleet [][]*replica) *Coordinator {
	client := opt.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{}}
	}
	gauges := opt.Registry
	if fleet[0][0].local != nil {
		gauges = obsv.NewNop()
	}
	c := &Coordinator{
		opt:    opt,
		client: client,
		fleet:  fleet,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),

		rpcs:        opt.Registry.Counter(obsv.MetricShardRPCs),
		rpcNs:       opt.Registry.Counter(obsv.MetricShardRPCNs),
		retriesC:    opt.Registry.Counter(obsv.MetricShardRetries),
		failovers:   opt.Registry.Counter(obsv.MetricShardFailovers),
		timeouts:    opt.Registry.Counter(obsv.MetricShardTimeouts),
		crashes:     opt.Registry.Counter(obsv.MetricShardCrashes),
		rejectedC:   opt.Registry.Counter(obsv.MetricShardRejected),
		heartbeats:  opt.Registry.Counter(obsv.MetricShardHeartbeats),
		rejoins:     opt.Registry.Counter(obsv.MetricShardRejoins),
		syncsC:      opt.Registry.Counter(obsv.MetricShardSyncs),
		queries:     opt.Registry.Counter(obsv.MetricShardQueries),
		unavailable: opt.Registry.Counter(obsv.MetricShardUnavailable),
		commBytes:   opt.Registry.Counter(obsv.MetricShardCommBytes),
		gHealthy:    gauges.Gauge(obsv.MetricShardHealthy),
		gSuspect:    gauges.Gauge(obsv.MetricShardSuspect),
		gDead:       gauges.Gauge(obsv.MetricShardDead),
		roundNs:     make(map[string]*obsv.Counter, len(Rounds)),
	}
	for _, r := range Rounds {
		c.roundNs[r] = opt.Registry.Counter(obsv.MetricShardRoundNsPrefix + r)
	}
	c.Publish(g)
	c.updateGauges()
	if opt.HeartbeatEvery > 0 {
		go c.heartbeatLoop()
	} else {
		close(c.doneCh)
	}
	return c
}

// Publish installs a new graph snapshot as the coordinator's current
// epoch. Workers are not pushed eagerly: the next round they serve
// rejects with epoch_mismatch and the coordinator syncs them on demand
// (and heartbeats sync idle workers in the background).
func (c *Coordinator) Publish(g *graph.Graph) {
	c.snap.Store(&coordSnap{
		g:      g,
		epoch:  g.Epoch(),
		bounds: Partition(g, len(c.fleet)),
	})
}

// Epoch returns the coordinator's current epoch.
func (c *Coordinator) Epoch() uint64 { return c.snap.Load().epoch }

// NumShards returns the fleet's partition count.
func (c *Coordinator) NumShards() int { return len(c.fleet) }

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// markFailure records one RPC failure against a replica and applies the
// healthy → suspect → dead transitions.
func (c *Coordinator) markFailure(shard int, r *replica, err error) {
	r.mu.Lock()
	r.fails++
	prev := r.state
	switch {
	case r.fails >= c.opt.DeadAfter:
		r.state = Dead
	case r.fails >= c.opt.SuspectAfter:
		r.state = Suspect
	}
	now := r.state
	r.mu.Unlock()
	if now != prev {
		c.logf("shard %d replica %s: %s -> %s (%v)", shard, r.addr, prev, now, err)
		c.updateGauges()
	}
}

// markSuccess records a successful RPC or heartbeat; a dead replica
// transitioning back to healthy is a rejoin.
func (c *Coordinator) markSuccess(shard int, r *replica) {
	r.mu.Lock()
	prev := r.state
	r.fails = 0
	r.state = Healthy
	r.mu.Unlock()
	if prev != Healthy {
		if prev == Dead {
			c.rejoins.Inc()
		}
		c.logf("shard %d replica %s: %s -> healthy", shard, r.addr, prev)
		c.updateGauges()
	}
}

func (c *Coordinator) updateGauges() {
	var h, s, d int64
	for _, reps := range c.fleet {
		for _, r := range reps {
			r.mu.Lock()
			st := r.state
			r.mu.Unlock()
			switch st {
			case Healthy:
				h++
			case Suspect:
				s++
			case Dead:
				d++
			}
		}
	}
	c.gHealthy.Set(h)
	c.gSuspect.Set(s)
	c.gDead.Set(d)
}

// ordered returns the shard's replicas in preference order: healthy
// first, then suspect, then dead. Dead replicas stay in the rotation —
// with one replica per shard the "dead" one is still the only hope, and
// a restarted worker answers at the same address.
func (c *Coordinator) ordered(shard int) []*replica {
	reps := c.fleet[shard]
	out := make([]*replica, 0, len(reps))
	for want := Healthy; want <= Dead; want++ {
		for _, r := range reps {
			r.mu.Lock()
			st := r.state
			r.mu.Unlock()
			if st == want {
				out = append(out, r)
			}
		}
	}
	return out
}

// FleetStatus snapshots the fleet's health for /healthz.
func (c *Coordinator) FleetStatus() FleetStatus {
	sn := c.snap.Load()
	fs := FleetStatus{Shards: len(c.fleet), Epoch: sn.epoch}
	now := time.Now()
	for i, reps := range c.fleet {
		ss := ShardStatus{Shard: i, Lo: sn.bounds[i], Hi: sn.bounds[i+1]}
		for _, r := range reps {
			r.mu.Lock()
			rs := ReplicaStatus{
				Addr: r.addr, State: r.state.String(),
				Epoch: r.epoch, Steps: r.steps, LastHeartbeatMS: -1,
			}
			if !r.lastBeat.IsZero() {
				rs.LastHeartbeatMS = now.Sub(r.lastBeat).Milliseconds()
			}
			switch r.state {
			case Healthy:
				fs.Healthy++
			case Suspect:
				fs.Suspect++
			case Dead:
				fs.Dead++
			}
			r.mu.Unlock()
			ss.Replicas = append(ss.Replicas, rs)
		}
		fs.Fleet = append(fs.Fleet, ss)
	}
	return fs
}

// heartbeatLoop probes every replica each period until Shutdown.
func (c *Coordinator) heartbeatLoop() {
	defer close(c.doneCh)
	defer func() {
		if v := recover(); v != nil {
			c.logf("shard: heartbeat loop panic: %v", v)
		}
	}()
	t := time.NewTicker(c.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.HeartbeatNow(context.Background())
		}
	}
}

// HeartbeatNow probes every replica once, applying health transitions and
// pushing epoch syncs to lagging-but-alive workers (that is how a
// restarted worker rejoins: its first heartbeat succeeds, its stale epoch
// is noticed, and a sync catches it up before any round lands on it).
func (c *Coordinator) HeartbeatNow(ctx context.Context) {
	sn := c.snap.Load()
	var wg sync.WaitGroup
	//lint:ctxok fleet-sized spawn loop; each probe goroutine honors ctx via HeartbeatTimeout
	for shard, reps := range c.fleet {
		//lint:ctxok replica-sized spawn loop; ctx is forwarded into every probe
		for _, r := range reps {
			wg.Add(1)
			go func(shard int, r *replica) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						c.logf("shard: heartbeat panic for %s: %v", r.addr, v)
					}
				}()
				c.heartbeatOne(ctx, sn, shard, r)
			}(shard, r)
		}
	}
	//lint:chanwait bounded: each probe goroutine is bounded by HeartbeatTimeout
	wg.Wait()
}

func (c *Coordinator) heartbeatOne(ctx context.Context, sn *coordSnap, shard int, r *replica) {
	c.heartbeats.Inc()
	hctx, cancel := context.WithTimeout(ctx, c.opt.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, r.addr+PathHealth, nil)
	if err != nil {
		c.markFailure(shard, r, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.markFailure(shard, r, err)
		return
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		c.markFailure(shard, r, fmt.Errorf("heartbeat decode: %w", err))
		return
	}
	if h.Shard != shard || h.Shards != len(c.fleet) {
		// A worker launched with wrong partition arguments must never be
		// routed to; treat it as persistently failing.
		c.markFailure(shard, r, fmt.Errorf("worker identifies as shard %d/%d, coordinator expects %d/%d",
			h.Shard, h.Shards, shard, len(c.fleet)))
		return
	}
	if h.Draining {
		c.markFailure(shard, r, fmt.Errorf("worker draining"))
		return
	}
	r.mu.Lock()
	r.epoch = h.Epoch
	r.lastBeat = time.Now()
	r.steps = h.Steps
	r.mu.Unlock()
	c.markSuccess(shard, r)
	if h.Epoch != sn.epoch {
		if err := c.syncReplica(ctx, sn, shard, r); err != nil {
			c.logf("shard %d replica %s: background sync failed: %v", shard, r.addr, err)
		}
	}
}

// syncReplica pushes the coordinator's current snapshot to one worker
// (epoch catch-up).
func (c *Coordinator) syncReplica(ctx context.Context, sn *coordSnap, shard int, r *replica) error {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], sn.epoch)
	buf.Write(hdr[:])
	if err := graph.WriteBinary(&buf, sn.g); err != nil {
		return fmt.Errorf("encoding sync snapshot: %w", err)
	}
	sctx, cancel := context.WithTimeout(ctx, c.opt.StepTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, r.addr+PathSync, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sync rejected with status %d", resp.StatusCode)
	}
	c.syncsC.Inc()
	c.commBytes.Add(int64(buf.Len()))
	r.mu.Lock()
	r.epoch = sn.epoch
	r.mu.Unlock()
	c.logf("shard %d replica %s: synced to epoch %d", shard, r.addr, sn.epoch)
	return nil
}

// Shutdown stops the heartbeat loop and notifies every replica to drain,
// so workers finish in-flight supersteps and refuse new ones while the
// serving tier's grace period runs. Best-effort per replica, bounded by
// ctx.
func (c *Coordinator) Shutdown(ctx context.Context) {
	c.stopOnce.Do(func() { close(c.stopCh) })
	//lint:chanwait bounded: heartbeatLoop exits on the just-closed stopCh
	<-c.doneCh
	var wg sync.WaitGroup
	//lint:ctxok fleet-sized spawn loop; each drain notify honors the caller's ctx
	for shard, reps := range c.fleet {
		//lint:ctxok replica-sized spawn loop; ctx is forwarded into every notify request
		for _, r := range reps {
			wg.Add(1)
			go func(shard int, r *replica) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						c.logf("shard: drain panic for %s: %v", r.addr, v)
					}
				}()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.addr+PathDrain, nil)
				if err != nil {
					return
				}
				resp, err := c.client.Do(req)
				if err != nil {
					c.logf("shard %d replica %s: drain notify failed: %v", shard, r.addr, err)
					return
				}
				resp.Body.Close()
			}(shard, r)
		}
	}
	//lint:chanwait bounded: each drain notify is bounded by the caller's ctx
	wg.Wait()
}

// callStep runs one round RPC against one shard with the full containment
// ladder: fault injection, per-RPC deadline, failure classification,
// capped exponential backoff, replica failover in health-preference
// order, and epoch-mismatch sync. Every failed attempt is retried until
// MaxAttempts; exhaustion returns a ShardUnavailableError wrapping the
// last leaf failure.
func (c *Coordinator) callStep(ctx context.Context, sn *coordSnap, shard int, req *StepRequest, qBytes *atomic.Int64) (*StepResponse, error) {
	var body []byte // the gob request, for HTTP replicas only
	if c.fleet[shard][0].local == nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(req); err != nil {
			return nil, fmt.Errorf("shard: encoding %s round: %w", req.Round, err)
		}
		body = buf.Bytes()
	}
	backoff := c.opt.RetryBackoff
	var last error
	attempts := 0
	for attempts < c.opt.MaxAttempts {
		reps := c.ordered(shard)
		for ri, r := range reps {
			if attempts >= c.opt.MaxAttempts {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			attempts++
			if attempts > 1 {
				c.retriesC.Inc()
				fault.NoteRetry()
				if ri > 0 {
					c.failovers.Inc()
				}
				// The backoff sleep honors cancellation: a client that
				// goes away mid-backoff aborts the query immediately.
				timer := time.NewTimer(backoff)
				select {
				case <-ctx.Done():
					timer.Stop()
					return nil, ctx.Err()
				case <-timer.C:
				}
				backoff *= 2
				if backoff > c.opt.MaxRetryBackoff {
					backoff = c.opt.MaxRetryBackoff
				}
			}
			// One hit per round attempt: error actions model a lost round
			// and are retried like any other failure.
			if err := fault.Inject(fault.SuperstepStart); err != nil {
				last = err
				continue
			}
			resp, err := c.attempt(ctx, shard, r, req, body, qBytes)
			if err == nil {
				c.markSuccess(shard, r)
				return resp, nil
			}
			last = err
			var rej *ShardRejectedError
			if errors.As(err, &rej) && rej.Kind == rejectEpoch {
				// The worker is alive on a stale epoch: catch it up and
				// let the loop retry. The sync failing falls through to
				// normal failure accounting.
				if serr := c.syncReplica(ctx, sn, shard, r); serr == nil {
					continue
				}
			}
			c.markFailure(shard, r, err)
		}
	}
	c.unavailable.Inc()
	return nil, &ShardUnavailableError{Shard: shard, Round: req.Round, Attempts: attempts, Err: last}
}

// attempt performs exactly one round call against one replica, over the
// replica's transport, and classifies its failure.
func (c *Coordinator) attempt(ctx context.Context, shard int, r *replica, req *StepRequest, body []byte, qBytes *atomic.Int64) (*StepResponse, error) {
	if err := fault.Inject(fault.ShardRPC); err != nil {
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: r.addr, Round: req.Round, Err: err}
	}
	c.rpcs.Inc()
	start := time.Now()
	defer func() { c.rpcNs.Add(int64(time.Since(start))) }()
	if r.local != nil {
		return c.stepLocal(ctx, shard, r, req, qBytes)
	}
	return c.stepHTTP(ctx, shard, r, req.Round, body, qBytes)
}

// stepLocal hands one round to an in-process Worker: no gob, no listener.
// The call runs on its own goroutine so that a StepTimeout deadline can
// abandon a worker that stopped making progress, and a panic anywhere in
// the round comes back as a *result.WorkerPanicError. The bytes counted
// are the ones that cross a partition: 12 per mirror similarity (SimMsg)
// the sim round emits for another shard.
func (c *Coordinator) stepLocal(ctx context.Context, shard int, r *replica, req *StepRequest, qBytes *atomic.Int64) (*StepResponse, error) {
	actx := ctx
	if c.opt.StepTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opt.StepTimeout)
		defer cancel()
	}
	type reply struct {
		resp *StepResponse
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				done <- reply{err: &result.WorkerPanicError{
					Phase: "shard " + req.Round, Worker: shard, Value: v, Stack: debug.Stack(),
				}}
			}
		}()
		resp, err := r.local.runStep(actx, req)
		done <- reply{resp, err}
	}()
	select {
	case rep := <-done:
		if rep.err == nil {
			if n := int64(len(rep.resp.Outbox)) * 12; n > 0 {
				c.commBytes.Add(n)
				qBytes.Add(n)
			}
			return rep.resp, nil
		}
		if actx.Err() == nil {
			return nil, rep.err
		}
	case <-actx.Done():
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	c.timeouts.Inc()
	return nil, &ShardTimeoutError{Shard: shard, Addr: r.addr, Round: req.Round, Timeout: c.opt.StepTimeout}
}

// stepHTTP performs one round RPC: POST the gob body to the worker under
// the per-RPC deadline, decode the gob reply, and count the wire bytes
// both ways.
func (c *Coordinator) stepHTTP(ctx context.Context, shard int, r *replica, round string, body []byte, qBytes *atomic.Int64) (*StepResponse, error) {
	actx, cancel := context.WithTimeout(ctx, c.opt.StepTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, r.addr+PathStep, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard: building %s request: %w", round, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.commBytes.Add(int64(len(body)))
	qBytes.Add(int64(len(body)))
	resp, err := c.client.Do(req)
	if err != nil {
		if actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			c.timeouts.Inc()
			return nil, &ShardTimeoutError{Shard: shard, Addr: r.addr, Round: round, Timeout: c.opt.StepTimeout}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: r.addr, Round: round, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var rej rejection
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&rej)
		if rej.Kind == "" {
			rej.Kind = rejectInternalErr
		}
		c.rejectedC.Inc()
		return nil, &ShardRejectedError{
			Shard: shard, Addr: r.addr, Round: round,
			Status: resp.StatusCode, Kind: rej.Kind, Msg: rej.Error,
		}
	}
	counted := &countingReader{r: resp.Body}
	var sr StepResponse
	if err := gob.NewDecoder(counted).Decode(&sr); err != nil {
		// A connection severed mid-response body (worker died while
		// writing) surfaces here, after the 200 header.
		if actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			c.timeouts.Inc()
			return nil, &ShardTimeoutError{Shard: shard, Addr: r.addr, Round: round, Timeout: c.opt.StepTimeout}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.crashes.Inc()
		return nil, &ShardCrashError{Shard: shard, Addr: r.addr, Round: round, Err: err}
	}
	c.commBytes.Add(counted.n)
	qBytes.Add(counted.n)
	if sr.Shard != shard || sr.Round != round {
		c.rejectedC.Inc()
		return nil, &ShardRejectedError{
			Shard: shard, Addr: r.addr, Round: round, Status: resp.StatusCode,
			Kind: rejectWrongShard,
			Msg:  fmt.Sprintf("response names shard %d round %q", sr.Shard, sr.Round),
		}
	}
	return &sr, nil
}

// countingReader counts wire bytes actually read (Stats.CommBytes over
// HTTP is the measured wire traffic).
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Run executes one clustering query across the fleet: four fan-out
// rounds (sim → roles → cluster → members) with a central union-find
// reduce, producing a Result bit-identical to every engine's output for
// the same snapshot and parameters. Any shard that cannot serve a round
// after retries and failover fails the query with a typed
// ShardUnavailableError — never a hang, never a partial result.
func (c *Coordinator) Run(ctx context.Context, eps string, mu int32) (*result.Result, error) {
	th, err := simdef.NewThreshold(eps, mu)
	if err != nil {
		return nil, err
	}
	res, _, err := c.run(ctx, th)
	return res, err
}

// run is Run on a parsed threshold; a failed query also names the round
// it failed in.
func (c *Coordinator) run(ctx context.Context, th simdef.Threshold) (*result.Result, string, error) {
	c.queries.Inc()
	sn := c.snap.Load()
	g, bounds := sn.g, sn.bounds
	n := g.NumVertices()
	p := len(c.fleet)
	qid := c.queryID.Add(1)
	base := StepRequest{QueryID: qid, Epoch: sn.epoch, Eps: th.Eps.String(), Mu: th.Mu}
	start := time.Now()
	// Wire bytes are measured per query (request bodies out, response
	// bodies in), not modeled — concurrent queries each count their own.
	var qBytes atomic.Int64

	// fanOut runs one round on every shard concurrently; the per-shard
	// request is built by mk (which must not share mutable state).
	fanOut := func(round string, mk func(shard int) *StepRequest) ([]*StepResponse, error) {
		t0 := time.Now()
		defer func() { c.roundNs[round].Add(int64(time.Since(t0))) }()
		resps := make([]*StepResponse, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for s := 0; s < p; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						errs[s] = &result.WorkerPanicError{
							Phase: "shard " + round, Worker: s, Value: v, Stack: debug.Stack(),
						}
					}
				}()
				resps[s], errs[s] = c.callStep(ctx, sn, s, mk(s), &qBytes)
			}(s)
		}
		//lint:chanwait bounded: every callStep is bounded by MaxAttempts deadlined RPCs
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return resps, nil
	}

	owner := func(v int32) int {
		lo, hi := 0, p-1
		for lo < hi {
			mid := (lo + hi) / 2
			if v >= bounds[mid+1] {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Round 1: local similarity passes; outboxes carry cross-shard mirror
	// values, grouped here into per-shard inboxes for every later round.
	simResps, err := fanOut(RoundSim, func(s int) *StepRequest {
		r := base
		r.Round = RoundSim
		return &r
	})
	if err != nil {
		return nil, RoundSim, err
	}
	inboxes := make([][]SimMsg, p)
	//lint:ctxok bounded regroup of round-1 outboxes between superstep barriers
	for _, resp := range simResps {
		//lint:ctxok bounded by the round's cross-shard message count
		for _, m := range resp.Outbox {
			o := owner(m.V)
			inboxes[o] = append(inboxes[o], m)
		}
	}

	// Round 2: roles over the completed similarity state.
	roleResps, err := fanOut(RoundRoles, func(s int) *StepRequest {
		r := base
		r.Round = RoundRoles
		r.Inbox = inboxes[s]
		return &r
	})
	if err != nil {
		return nil, RoundRoles, err
	}
	roles := make([]result.Role, n)
	//lint:ctxok bounded p-iteration fold between superstep barriers
	for s, resp := range roleResps {
		copy(roles[bounds[s]:bounds[s+1]], resp.Roles)
	}

	// Round 3: similar core-core edges, reduced through a central
	// union-find with min-core-id labeling.
	clusterResps, err := fanOut(RoundCluster, func(s int) *StepRequest {
		r := base
		r.Round = RoundCluster
		r.Inbox = inboxes[s]
		r.Roles = roles
		return &r
	})
	if err != nil {
		return nil, RoundCluster, err
	}
	if err := ctx.Err(); err != nil {
		return nil, RoundCluster, err
	}
	uf := unionfind.NewSequential(n)
	//lint:ctxok bounded central union-find fold between superstep barriers
	for _, resp := range clusterResps {
		//lint:ctxok bounded by the round's core-core edge count
		for _, e := range resp.UnionEdges {
			uf.Union(e[0], e[1])
		}
	}
	clusterID := make([]int32, n)
	coreClusterID := make([]int32, n)
	//lint:ctxok bounded n-iteration init, ctx rechecked above before the merge
	for i := range clusterID {
		clusterID[i] = -1
		coreClusterID[i] = -1
	}
	//lint:ctxok bounded n-iteration min-core-id labeling between superstep barriers
	for u := int32(0); u < n; u++ {
		if roles[u] == result.RoleCore {
			r := uf.Find(u)
			if clusterID[r] < 0 || u < clusterID[r] {
				clusterID[r] = u
			}
		}
	}
	//lint:ctxok bounded n-iteration label propagation between superstep barriers
	for u := int32(0); u < n; u++ {
		if roles[u] == result.RoleCore {
			coreClusterID[u] = clusterID[uf.Find(u)]
		}
	}

	// Round 4: membership emission by each shard's cores.
	memberResps, err := fanOut(RoundMembers, func(s int) *StepRequest {
		r := base
		r.Round = RoundMembers
		r.Inbox = inboxes[s]
		r.Roles = roles
		r.CoreClusterID = coreClusterID[bounds[s]:bounds[s+1]]
		return &r
	})
	if err != nil {
		return nil, RoundMembers, err
	}

	res := &result.Result{
		Eps:           th.Eps.String(),
		Mu:            th.Mu,
		Roles:         roles,
		CoreClusterID: coreClusterID,
	}
	//lint:ctxok bounded p-iteration fold after the final superstep barrier
	for _, resp := range memberResps {
		res.NonCore = append(res.NonCore, resp.Members...)
	}
	res.Normalize()
	res.Stats = result.Stats{
		Algorithm:    fmt.Sprintf("shard-scan(s=%d)", p),
		Workers:      p,
		CompSimCalls: g.NumEdges(),
		Total:        time.Since(start),
		CommBytes:    qBytes.Load(),
	}
	return res, "", nil
}
