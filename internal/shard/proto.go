// Package shard runs SCAN as bulk-synchronous rounds over contiguous
// vertex-range partitions of the CSR: a coordinator drives four rounds
// (sim → roles → cluster → members) across one worker per partition and
// reduces the similar core-core edges through a central union-find. This is
// the SparkSCAN / PSCAN family (Zhou & Wang 2015; Zhao et al. 2013) that the
// ppSCAN paper's related work dismisses for "incurring communication
// overheads" (§3.3); the round core is written once and runs over two
// transports:
//
//   - HTTP/gob to a fleet of worker processes (cmd/scanshard), the serving
//     tier behind the server's WithShards;
//   - direct calls into in-process Workers on the run's own snapshot, the
//     "dist-scan" engine (engine.go), which reports the bytes that cross a
//     partition as Stats.CommBytes.
//
// The headline property is shard-level fault containment. Every round
// request is self-contained — it carries the query parameters, the target
// epoch, and every cross-shard input (mirror-similarity inbox, global
// roles, cluster ids) the round needs — so any replica of a shard can
// serve any round at any time, a retried round is idempotent, and a
// worker that crashed and restarted serves the very next round correctly
// by recomputing its deterministic local state. That is what makes the
// paper's BSP phase structure recoverable: a failed shard costs one
// bounded round re-dispatch, never the whole query.
//
// The failure model (errors.go) types every observable fault — timeout,
// crash, rejection — and the coordinator reacts with per-RPC deadlines,
// capped exponential backoff, replica failover, heartbeat-driven health
// states (healthy → suspect → dead) and epoch catch-up pushes so a
// rejoined worker never serves a stale snapshot. When a shard has no
// replica left, the query degrades to a typed ShardUnavailableError that
// the HTTP server surfaces as a structured 503 + Retry-After.
package shard

import (
	"ppscan/graph"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// Worker HTTP surface. The paths live under /shard/ so a worker can share
// a mux with diagnostic endpoints without collisions; none of them are
// public API — only the coordinator speaks them.
const (
	// PathStep serves one superstep round (POST, gob StepRequest →
	// gob StepResponse).
	PathStep = "/shard/step"
	// PathHealth is the heartbeat probe (GET → JSON Health).
	PathHealth = "/shard/healthz"
	// PathSync accepts an epoch catch-up snapshot (POST, 8-byte big-endian
	// epoch + graph.WriteBinary payload).
	PathSync = "/shard/sync"
	// PathDrain notifies the worker that the coordinator is going away
	// (POST); the worker finishes in-flight supersteps, flips its health
	// endpoint to draining and refuses new rounds.
	PathDrain = "/shard/drain"
)

// Round names, in execution order. RoundSim computes every owned edge's
// similarity against the worker's own snapshot (no adjacency exchange;
// mirror values cross shards as SimMsg outboxes), RoundRoles derives the
// owned roles, and RoundCluster and RoundMembers sit either side of the
// coordinator's global union-find reduce.
const (
	RoundSim     = "sim"
	RoundRoles   = "roles"
	RoundCluster = "cluster"
	RoundMembers = "members"
)

// Rounds lists the step rounds in execution order.
var Rounds = []string{RoundSim, RoundRoles, RoundCluster, RoundMembers}

// SimMsg carries one cross-shard mirror similarity: the value of edge
// (V, U) computed by U's owner, addressed to V's owner so both directed
// slots of the undirected edge agree.
type SimMsg struct {
	V, U int32
	Val  simdef.EdgeSim
}

// StepRequest is one superstep round addressed to one shard. Requests are
// self-contained by design (see the package comment): Inbox, Roles and
// CoreClusterID repeat whatever cross-shard state the round needs, so a
// replica or a freshly restarted worker can serve it without any history.
type StepRequest struct {
	// QueryID identifies the query for logs; correctness never depends on
	// it (worker state is keyed by epoch and parameters, which determine
	// every intermediate deterministically).
	QueryID uint64
	// Epoch is the snapshot generation this round must be computed
	// against. A worker holding a different epoch rejects with 409 and
	// the coordinator pushes a sync before retrying.
	Epoch uint64
	// Eps and Mu are the clustering parameters.
	Eps string
	Mu  int32
	// Round selects the superstep (RoundSim, RoundRoles, RoundCluster,
	// RoundMembers).
	Round string
	// Inbox carries the mirror similarities addressed to this shard
	// (every round after RoundSim; applying it twice is idempotent).
	Inbox []SimMsg
	// Roles is the full n-vertex role assignment (RoundCluster and
	// RoundMembers — membership emission tests neighbor roles, and
	// neighbors cross shard boundaries).
	Roles []result.Role
	// CoreClusterID carries the cluster id of each vertex in this shard's
	// range, cores only, -1 elsewhere (RoundMembers).
	CoreClusterID []int32
}

// StepResponse is a shard's answer to one round. Only the field matching
// the request round is populated.
type StepResponse struct {
	// Shard and Round echo the worker's shard id and the served round as a
	// routing cross-check: a response from the wrong worker or for a stale
	// in-flight request is discarded instead of trusted.
	Shard int
	Round string
	// Outbox (RoundSim) carries mirror similarities for edges whose other
	// endpoint lives on a different shard, grouped by the coordinator into
	// the next round's inboxes.
	Outbox []SimMsg
	// Roles (RoundRoles) holds the roles of this shard's vertex range.
	Roles []result.Role
	// UnionEdges (RoundCluster) lists similar core-core edges owned by
	// this shard, the coordinator's union-find input.
	UnionEdges [][2]int32
	// Members (RoundMembers) lists non-core memberships emitted by this
	// shard's cores.
	Members []result.Membership
}

// Health is the worker's heartbeat body (JSON on PathHealth). The
// coordinator cross-checks Shard/Shards/Epoch against its own wiring and
// treats any mismatch as a routing failure, so a worker launched with the
// wrong partition arguments can never silently serve wrong ranges.
type Health struct {
	Shard    int    `json:"shard"`
	Shards   int    `json:"shards"`
	Epoch    uint64 `json:"epoch"`
	Draining bool   `json:"draining"`
	// Lo and Hi are the owned vertex range [Lo, Hi).
	Lo int32 `json:"lo"`
	Hi int32 `json:"hi"`
	// Steps counts superstep rounds served since the worker started — a
	// cheap liveness progress signal for operators.
	Steps int64 `json:"steps"`
}

// rejection is the JSON error body a worker answers non-200 with; Kind is
// machine-readable so the coordinator can react (epoch_mismatch → sync).
type rejection struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// Epoch reports the epoch the worker holds (epoch_mismatch only).
	Epoch uint64 `json:"epoch,omitempty"`
}

// Rejection kinds.
const (
	rejectDraining     = "draining"
	rejectEpoch        = "epoch_mismatch"
	rejectBadRequest   = "bad_request"
	rejectWrongShard   = "wrong_shard"
	rejectInternalErr  = "internal_error"
	rejectInjectedHalt = "injected_halt"
)

// Partition returns p+1 boundaries splitting [0, n) into contiguous ranges
// with roughly equal degree sums. Coordinator and workers derive it from
// the same (graph, p), so they always agree on range ownership.
func Partition(g *graph.Graph, p int) []int32 {
	n := g.NumVertices()
	bounds := make([]int32, p+1)
	total := g.NumDirectedEdges() + int64(n) // +1 per vertex so empty graphs split too
	target := total / int64(p)
	w := 1
	var acc int64
	for u := int32(0); u < n && w < p; u++ {
		acc += int64(g.Degree(u)) + 1
		if acc >= target*int64(w) {
			bounds[w] = u + 1
			w++
		}
	}
	for ; w < p; w++ {
		bounds[w] = n
	}
	bounds[p] = n
	return bounds
}
