package shard

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"ppscan/graph"
	"ppscan/internal/fault"
	"ppscan/internal/intersect"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// DefaultStateCache is how many per-query similarity states a worker keeps
// resident (see WorkerOptions.StateCache). Each costs O(m/p) memory; the
// coordinator touches one per in-flight query, so a handful suffices.
const DefaultStateCache = 4

// DefaultMaxBodyBytes bounds a step request body. Round inputs are O(n)
// (roles) plus O(boundary) (inbox); 1 GiB is far above any graph this tier
// serves while still refusing a decompression-bomb-shaped request before
// it allocates.
const DefaultMaxBodyBytes = 1 << 30

// WorkerOptions configures a shard worker.
type WorkerOptions struct {
	// Shard is this worker's partition id in [0, Shards).
	Shard int
	// Shards is the fleet's partition count; the vertex-range bounds are
	// Partition(g, Shards), identical on coordinator and workers.
	Shards int
	// Workers bounds intra-process parallelism for the similarity pass;
	// < 1 defaults to GOMAXPROCS.
	Workers int
	// Kernel selects the set-intersection kernel (default MergeEarly).
	Kernel intersect.Kind
	// StateCache bounds resident per-query similarity states; < 1
	// defaults to DefaultStateCache.
	StateCache int
	// MaxBodyBytes bounds one request body; < 1 defaults to
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Registry receives the shard.worker.* metrics. nil means a private
	// registry (surfaced only through Health).
	Registry *obsv.Registry
	// CrashHook runs when an injected ShardCrash error-action fires
	// mid-superstep. cmd/scanshard hard-exits the process; the default
	// panics, which net/http converts into a severed connection — either
	// way the coordinator observes a crash, not an error response.
	CrashHook func()
}

// snapState is one worker serving generation: an immutable snapshot, the
// epoch it represents, and the partition bounds derived from it. Published
// as a single atomic pointer swap (PathSync), so a step request observes
// one consistent generation.
type snapState struct {
	g      *graph.Graph
	epoch  uint64
	bounds []int32
	lo, hi int32
}

// stateKey identifies one deterministic similarity state. QueryID is
// deliberately absent: for a fixed (epoch, eps, mu) every intermediate is
// deterministic, so two queries with equal parameters share state — the
// worker-side analogue of the server's response cache.
type stateKey struct {
	epoch uint64
	eps   string
	mu    int32
}

// queryState caches the shard-local similarity pass for one stateKey. sim
// holds the owned directed-edge range [Off[lo], Off[hi)) rebased to 0;
// outbox holds the mirror messages for other shards. ready flips once the
// local pass completed; a panic during compute leaves ready false so the
// next request recomputes instead of serving torn state.
type queryState struct {
	mu      sync.Mutex
	ready   bool
	sim     []simdef.EdgeSim
	outbox  []SimMsg
	simBase int64
}

// Worker owns one vertex-range partition and serves superstep rounds.
// Construct with NewWorker, mount Handler on an HTTP server, and point a
// Coordinator at it.
type Worker struct {
	opt  WorkerOptions
	snap atomic.Pointer[snapState]

	draining atomic.Bool
	stepsN   atomic.Int64

	mu     sync.Mutex
	states map[stateKey]*queryState
	order  []stateKey // FIFO eviction order

	steps, hits, misses, syncs *obsv.Counter
}

// NewWorker creates a worker owning shard opt.Shard of opt.Shards over g
// at epoch g.Epoch().
func NewWorker(g *graph.Graph, opt WorkerOptions) (*Worker, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: worker needs a positive shard count, got %d", opt.Shards)
	}
	if opt.Shard < 0 || opt.Shard >= opt.Shards {
		return nil, fmt.Errorf("shard: worker shard id %d out of range [0, %d)", opt.Shard, opt.Shards)
	}
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.StateCache < 1 {
		opt.StateCache = DefaultStateCache
	}
	if opt.MaxBodyBytes < 1 {
		opt.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opt.Registry == nil {
		opt.Registry = obsv.New()
	}
	if opt.CrashHook == nil {
		opt.CrashHook = func() {
			panic("shard: injected worker crash (ShardCrash)")
		}
	}
	w := &Worker{
		opt:    opt,
		states: make(map[stateKey]*queryState),
		steps:  opt.Registry.Counter(obsv.MetricShardWorkerSteps),
		hits:   opt.Registry.Counter(obsv.MetricShardWorkerStateHits),
		misses: opt.Registry.Counter(obsv.MetricShardWorkerStateMisses),
		syncs:  opt.Registry.Counter(obsv.MetricShardWorkerSyncs),
	}
	w.install(g, g.Epoch())
	return w, nil
}

// install publishes a new serving generation and drops cached states from
// other epochs (they can never be requested again — the coordinator only
// asks for its current epoch).
func (w *Worker) install(g *graph.Graph, epoch uint64) {
	bounds := Partition(g, w.opt.Shards)
	w.snap.Store(&snapState{
		g: g, epoch: epoch, bounds: bounds,
		lo: bounds[w.opt.Shard], hi: bounds[w.opt.Shard+1],
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.order[:0]
	for _, k := range w.order {
		if k.epoch == epoch {
			keep = append(keep, k)
		} else {
			delete(w.states, k)
		}
	}
	w.order = keep
}

// Epoch returns the epoch of the published snapshot.
func (w *Worker) Epoch() uint64 { return w.snap.Load().epoch }

// SetDraining flips the drain flag: health answers 503 and new step
// rounds are rejected, while rounds already executing finish normally.
func (w *Worker) SetDraining(v bool) { w.draining.Store(v) }

// Handler returns the worker's HTTP surface (PathStep, PathHealth,
// PathSync, PathDrain).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathStep, w.handleStep)
	mux.HandleFunc(PathHealth, w.handleHealth)
	mux.HandleFunc(PathSync, w.handleSync)
	mux.HandleFunc(PathDrain, w.handleDrain)
	return mux
}

// Health reports the worker's heartbeat body.
func (w *Worker) Health() Health {
	sn := w.snap.Load()
	return Health{
		Shard:    w.opt.Shard,
		Shards:   w.opt.Shards,
		Epoch:    sn.epoch,
		Draining: w.draining.Load(),
		Lo:       sn.lo,
		Hi:       sn.hi,
		Steps:    w.stepsN.Load(),
	}
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	h := w.Health()
	status := http.StatusOK
	if h.Draining {
		status = http.StatusServiceUnavailable
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(h)
}

func (w *Worker) handleDrain(rw http.ResponseWriter, r *http.Request) {
	w.SetDraining(true)
	rw.WriteHeader(http.StatusOK)
}

// handleSync accepts an epoch catch-up snapshot: 8 bytes of big-endian
// epoch followed by the graph.WriteBinary payload. The new generation is
// published atomically; in-flight rounds keep their already-loaded
// snapshot pointer (coherent, merely superseded) and the coordinator
// re-asks at the new epoch.
func (w *Worker) handleSync(rw http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(rw, r.Body, w.opt.MaxBodyBytes)
	var hdr [8]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		reject(rw, http.StatusBadRequest, rejectBadRequest, fmt.Errorf("sync header: %w", err), 0)
		return
	}
	epoch := binary.BigEndian.Uint64(hdr[:])
	g, err := graph.ReadBinary(body)
	if err != nil {
		reject(rw, http.StatusBadRequest, rejectBadRequest, fmt.Errorf("sync snapshot: %w", err), 0)
		return
	}
	w.install(g, epoch)
	w.syncs.Inc()
	rw.WriteHeader(http.StatusOK)
}

// reject writes the worker's structured refusal body.
func reject(rw http.ResponseWriter, status int, kind string, err error, epoch uint64) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(rejection{Error: err.Error(), Kind: kind, Epoch: epoch})
}

// handleStep serves one superstep round over HTTP: gob decode, runStep,
// then status mapping. The deferred recover is the worker-side
// containment barrier: a panic anywhere in the round (an injected
// ShardCrash panic-action, a bug in the compute path) answers 500 with a
// structured body — or, when the panic severed the connection already,
// the coordinator classifies the transport error as a crash. The request
// context reaches the similarity pass, so a coordinator that gives up on
// the RPC (deadline, cancelled query) stops the worker's compute too.
func (w *Worker) handleStep(rw http.ResponseWriter, r *http.Request) {
	wrote := false
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(*fault.InjectedPanic); ok {
				// Injected crash-panics model process death: re-panic so
				// net/http severs the connection instead of answering.
				// ErrAbortHandler gets the same severing without net/http
				// logging a stack trace for an intentional fault.
				panic(http.ErrAbortHandler)
			}
			if !wrote {
				reject(rw, http.StatusInternalServerError, rejectInternalErr,
					fmt.Errorf("superstep panic: %v", v), 0)
			}
		}
	}()
	var req StepRequest
	dec := gob.NewDecoder(http.MaxBytesReader(rw, r.Body, w.opt.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		reject(rw, http.StatusBadRequest, rejectBadRequest, fmt.Errorf("decoding step: %w", err), 0)
		return
	}
	resp, err := w.runStep(r.Context(), &req)
	if err != nil {
		var rej *ShardRejectedError
		if !errors.As(err, &rej) {
			// A contained compute panic or an abandoned round.
			reject(rw, http.StatusInternalServerError, rejectInternalErr, err, 0)
			return
		}
		var epoch uint64
		if rej.Kind == rejectEpoch {
			epoch = w.Epoch()
		}
		reject(rw, rej.Status, rej.Kind, errors.New(rej.Msg), epoch)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	wrote = true
	_ = gob.NewEncoder(rw).Encode(resp)
}

// runStep executes one round for either transport: the drain and epoch
// checks, the worker-side fault points, then step. Refusals come back as
// a *ShardRejectedError carrying the HTTP status they answer with; a
// compute panic as a *result.WorkerPanicError; an abandoned round as the
// context's error.
func (w *Worker) runStep(ctx context.Context, req *StepRequest) (*StepResponse, error) {
	refuse := func(status int, kind string, msg string) error {
		return &ShardRejectedError{Shard: w.opt.Shard, Round: req.Round, Status: status, Kind: kind, Msg: msg}
	}
	if w.draining.Load() {
		return nil, refuse(http.StatusServiceUnavailable, rejectDraining, "worker draining, not accepting rounds")
	}
	sn := w.snap.Load()
	if req.Epoch != sn.epoch {
		return nil, refuse(http.StatusConflict, rejectEpoch,
			fmt.Sprintf("round targets epoch %d, worker holds %d", req.Epoch, sn.epoch))
	}
	// Injection points: a straggler superstep (ShardDelay sleeps here) and
	// abrupt worker death (ShardCrash error-action runs the crash hook;
	// its panic-action panics in Inject and unwinds into the caller's
	// recover, which severs the connection).
	if err := fault.Inject(fault.ShardDelay); err != nil {
		return nil, refuse(http.StatusInternalServerError, rejectInjectedHalt, err.Error())
	}
	if err := fault.Inject(fault.ShardCrash); err != nil {
		w.opt.CrashHook()
		return nil, refuse(http.StatusInternalServerError, rejectInjectedHalt, err.Error())
	}
	resp, err := w.step(ctx, sn, req)
	if err != nil {
		var wpe *result.WorkerPanicError
		if errors.As(err, &wpe) || ctx.Err() != nil {
			return nil, err
		}
		return nil, refuse(http.StatusBadRequest, rejectBadRequest, err.Error())
	}
	w.stepsN.Add(1)
	w.steps.Inc()
	return resp, nil
}

// step executes one self-contained round against the generation sn.
func (w *Worker) step(ctx context.Context, sn *snapState, req *StepRequest) (*StepResponse, error) {
	th, err := simdef.NewThreshold(req.Eps, req.Mu)
	if err != nil {
		return nil, fmt.Errorf("bad parameters: %w", err)
	}
	st, err := w.ensure(ctx, sn, req, th)
	if err != nil {
		return nil, err
	}
	resp := &StepResponse{Shard: w.opt.Shard, Round: req.Round}
	st.mu.Lock()
	defer st.mu.Unlock()
	// Re-applying an inbox on a retried round is idempotent: the same
	// offsets get the same values.
	if len(req.Inbox) > 0 {
		if err := applyInbox(sn, st, req.Inbox); err != nil {
			return nil, err
		}
	}
	switch req.Round {
	case RoundSim:
		resp.Outbox = st.outbox
	case RoundRoles:
		resp.Roles = computeRoles(sn, st, th.Mu)
	case RoundCluster:
		if int32(len(req.Roles)) != sn.g.NumVertices() {
			return nil, fmt.Errorf("cluster round needs %d roles, got %d", sn.g.NumVertices(), len(req.Roles))
		}
		resp.UnionEdges = unionEdges(sn, st, req.Roles)
	case RoundMembers:
		if int32(len(req.Roles)) != sn.g.NumVertices() {
			return nil, fmt.Errorf("members round needs %d roles, got %d", sn.g.NumVertices(), len(req.Roles))
		}
		if int32(len(req.CoreClusterID)) != sn.hi-sn.lo {
			return nil, fmt.Errorf("members round needs %d cluster ids, got %d", sn.hi-sn.lo, len(req.CoreClusterID))
		}
		resp.Members = memberships(sn, st, req.Roles, req.CoreClusterID)
	default:
		return nil, fmt.Errorf("unknown round %q", req.Round)
	}
	return resp, nil
}

// ensure returns the similarity state for the request's (epoch, eps, mu),
// computing the shard-local pass if the cache misses — which is exactly
// how a restarted worker catches up mid-query: the pass is deterministic,
// so recomputing it yields bit-identical state.
func (w *Worker) ensure(ctx context.Context, sn *snapState, req *StepRequest, th simdef.Threshold) (*queryState, error) {
	key := stateKey{epoch: req.Epoch, eps: th.Eps.String(), mu: req.Mu}
	w.mu.Lock()
	st, ok := w.states[key]
	if !ok {
		st = &queryState{}
		w.states[key] = st
		w.order = append(w.order, key)
		if len(w.order) > w.opt.StateCache { // entries arrive one at a time
			delete(w.states, w.order[0])
			w.order = w.order[1:]
		}
	}
	w.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ready {
		w.hits.Inc()
		return st, nil
	}
	w.misses.Inc()
	if err := w.computeLocal(ctx, sn, st, th); err != nil {
		return nil, err
	}
	st.ready = true
	return st, nil
}

// computeLocal runs the shard-local similarity pass: every undirected edge
// whose smaller endpoint u is owned gets its value computed once; the
// mirror slot is written locally when the larger endpoint is owned too,
// and emitted as an outbox message otherwise. Parallel over vertex blocks,
// each one fault.WorkerTask hit under its own panic containment. A
// cancelled or panicked pass returns an error, which leaves the state
// not-ready for the next request to recompute.
func (w *Worker) computeLocal(ctx context.Context, sn *snapState, st *queryState, th simdef.Threshold) error {
	g := sn.g
	st.simBase = g.Off[sn.lo]
	st.sim = make([]simdef.EdgeSim, g.Off[sn.hi]-st.simBase)

	span := sn.hi - sn.lo
	nw := max(1, min(w.opt.Workers, int(span)))
	// Static block split; each goroutine owns a disjoint vertex range, so
	// all sim writes are disjoint and each builds a private outbox.
	outs := make([][]SimMsg, nw)
	var wg sync.WaitGroup
	var panicErr atomic.Pointer[result.WorkerPanicError]
	for i := 0; i < nw; i++ {
		a := sn.lo + int32(i)*span/int32(nw)
		b := sn.lo + int32(i+1)*span/int32(nw)
		wg.Add(1)
		go func(ctx context.Context, i int, a, b int32) {
			defer wg.Done()
			defer recoverSim(&panicErr, i)
			if err := fault.Inject(fault.WorkerTask); err != nil {
				// Blocks have no error channel; an injected error-action
				// fault surfaces as a contained panic.
				panic(err)
			}
			outs[i] = simBlock(ctx, sn, st, th, a, b, w.opt.Kernel)
		}(ctx, i, a, b)
	}
	//lint:chanwait bounded: the block goroutines run finite vertex loops under panic containment
	wg.Wait()
	if wpe := panicErr.Load(); wpe != nil {
		return wpe
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st.outbox = slices.Concat(outs...)
	return nil
}

// recoverSim is the similarity-block goroutine's containment barrier.
func recoverSim(panicErr *atomic.Pointer[result.WorkerPanicError], worker int) {
	if v := recover(); v != nil {
		panicErr.CompareAndSwap(nil, &result.WorkerPanicError{
			Phase: "shard " + RoundSim, Worker: worker, Value: v, Stack: debug.Stack(),
		})
	}
}

// simBlock computes similarities for owned tails in [a, b), polling ctx
// every 1024 vertices; a cancelled block returns early with a partial
// outbox the caller discards.
func simBlock(ctx context.Context, sn *snapState, st *queryState, th simdef.Threshold, a, b int32, kernel intersect.Kind) []SimMsg {
	var out []SimMsg
	for u := a; u < b; u++ {
		if u&1023 == 0 && ctx.Err() != nil {
			return out
		}
		out = simVertex(sn, st, th, u, kernel, out)
	}
	return out
}

// simVertex computes the similarities of u's edges to larger neighbours,
// writing owned mirror slots locally and appending the rest to out.
func simVertex(sn *snapState, st *queryState, th simdef.Threshold, u int32, kernel intersect.Kind, out []SimMsg) []SimMsg {
	g := sn.g
	uOff := g.Off[u]
	nbrs := g.Neighbors(u)
	for i, v := range nbrs {
		if v <= u {
			continue
		}
		c := th.Eps.MinCN(g.Degree(u), g.Degree(v))
		val := intersect.CompSim(kernel, nbrs, g.Neighbors(v), c)
		st.sim[uOff+int64(i)-st.simBase] = val
		if v < sn.hi {
			st.sim[g.EdgeOffset(v, u)-st.simBase] = val
		} else {
			out = append(out, SimMsg{V: v, U: u, Val: val})
		}
	}
	return out
}

// applyInbox writes mirror similarities addressed to this shard. Messages
// outside the owned range or naming absent edges are protocol errors.
func applyInbox(sn *snapState, st *queryState, inbox []SimMsg) error {
	g := sn.g
	for _, m := range inbox {
		if m.V < sn.lo || m.V >= sn.hi {
			return fmt.Errorf("inbox message for vertex %d outside owned range [%d, %d)", m.V, sn.lo, sn.hi)
		}
		e := g.EdgeOffset(m.V, m.U)
		if e < 0 {
			return fmt.Errorf("inbox message for absent edge (%d, %d)", m.V, m.U)
		}
		st.sim[e-st.simBase] = m.Val
	}
	return nil
}

// computeRoles derives the owned range's roles from the completed sim
// state (local pass + inbox).
func computeRoles(sn *snapState, st *queryState, mu int32) []result.Role {
	g := sn.g
	roles := make([]result.Role, sn.hi-sn.lo)
	for u := sn.lo; u < sn.hi; u++ {
		var similar int32
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			if st.sim[e-st.simBase] == simdef.Sim {
				similar++
			}
		}
		if similar >= mu {
			roles[u-sn.lo] = result.RoleCore
		} else {
			roles[u-sn.lo] = result.RoleNonCore
		}
	}
	return roles
}

// unionEdges lists the similar core-core edges owned by this shard (the
// smaller endpoint is owned), the coordinator's union-find input.
func unionEdges(sn *snapState, st *queryState, roles []result.Role) [][2]int32 {
	g := sn.g
	var out [][2]int32
	for u := sn.lo; u < sn.hi; u++ {
		if roles[u] != result.RoleCore {
			continue
		}
		uOff := g.Off[u]
		for i, v := range g.Neighbors(u) {
			if v > u && roles[v] == result.RoleCore && st.sim[uOff+int64(i)-st.simBase] == simdef.Sim {
				out = append(out, [2]int32{u, v})
			}
		}
	}
	return out
}

// memberships emits the non-core memberships of this shard's cores.
// coreID is indexed by u-lo.
func memberships(sn *snapState, st *queryState, roles []result.Role, coreID []int32) []result.Membership {
	g := sn.g
	var out []result.Membership
	for u := sn.lo; u < sn.hi; u++ {
		if roles[u] != result.RoleCore {
			continue
		}
		id := coreID[u-sn.lo]
		uOff := g.Off[u]
		for i, v := range g.Neighbors(u) {
			if roles[v] == result.RoleNonCore && st.sim[uOff+int64(i)-st.simBase] == simdef.Sim {
				out = append(out, result.Membership{V: v, ClusterID: id})
			}
		}
	}
	return out
}
