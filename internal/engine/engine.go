// Package engine defines the seam between callers and the clustering
// algorithm implementations: a common Engine interface, a registry that
// resolves backends by name, and a pooled Workspace holding every O(n+m)
// scratch buffer an engine needs, so steady-state serving reuses memory
// instead of re-allocating it per request.
//
// Implementation packages (internal/core, internal/pscan, ...) register
// their engines from init; they import this package, never the reverse, so
// the dependency graph stays acyclic:
//
//	ppscan (facade) ──► engine ◄── internal/core, internal/pscan, ...
//	                      ▲
//	internal/server ──────┘
//
// Callers that want every backend available blank-import the
// implementation packages (the facade does this), then resolve by name
// with Get or enumerate with All.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ppscan/graph"
	"ppscan/internal/obsv"
	"ppscan/internal/result"
	"ppscan/internal/simdef"
)

// Options is the engine-independent subset of run configuration. Engines
// ignore fields that do not apply to them (sequential engines ignore
// Workers; exhaustive engines have no DegreeThreshold).
type Options struct {
	// Workers bounds parallel engines' worker goroutines; < 1 means
	// GOMAXPROCS. The dist-scan engine interprets it as the partition
	// count, matching the facade's historical contract.
	Workers int
	// Kernel names the set-intersection kernel ("merge", "pivot-block16",
	// ...). Empty selects the engine's paper-faithful default — a string
	// rather than intersect.Kind because the Kind zero value is a valid
	// kernel (Merge) and could not encode "unset".
	Kernel string
	// DegreeThreshold overrides the degree-based scheduler's task
	// granularity (engines with a scheduler only).
	DegreeThreshold int64
	// StaticScheduling disables degree-based dynamic scheduling (ablation
	// knob; ppSCAN engines only).
	StaticScheduling bool
	// Registry, when non-nil, receives the engine's run telemetry.
	// Engines that publish metrics default to obsv.Default() when nil.
	Registry *obsv.Registry
	// Tracer, when non-nil, records per-phase and per-task spans.
	Tracer *obsv.Tracer
	// StallTimeout arms the phase watchdog on engines that support it
	// (currently the ppscan and dist-scan families): a ppscan phase making
	// no scheduler progress for this long, or a dist-scan round that
	// misses this deadline on every attempt, is aborted with a
	// result.PartialError wrapping result.ErrStalled. Zero disables the
	// watchdog (the default: no extra goroutine, no extra allocation).
	StallTimeout time.Duration
}

// Engine is one clustering backend. RunContext computes the exact SCAN
// clustering of g under th.
//
// The workspace ws may be nil (the engine then allocates transient
// scratch). When ws is non-nil the returned Result MAY alias workspace
// memory: it is valid until the next run on the same workspace, and
// callers that retain it across runs must Clone it first. See the
// Workspace aliasing rule for details.
type Engine interface {
	// Name returns the registry key ("ppscan", "pscan", ...).
	Name() string
	// RunContext runs the engine. Engines with internal checkpoints abort
	// promptly on ctx cancellation with a *result.PartialError; single-pass
	// engines check ctx only at the start and report a completed-but-late
	// result via FinishUninterruptible.
	RunContext(ctx context.Context, g *graph.Graph, th simdef.Threshold, opt Options, ws *Workspace) (*result.Result, error)
}

var (
	regMu   sync.RWMutex
	engines = map[string]Engine{}
)

// Register adds e under e.Name(). It panics on a duplicate name — engines
// register from init, so a collision is a programming error, not a
// runtime condition.
func Register(e Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	name := e.Name()
	if name == "" {
		panic("engine: Register with empty name")
	}
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("engine: duplicate Register(%q)", name))
	}
	engines[name] = e
}

// Get resolves an engine by name.
func Get(name string) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := engines[name]
	return e, ok
}

// Names returns every registered engine name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(engines))
	for name := range engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns every registered engine, sorted by name — the iteration
// order conformance suites rely on.
func All() []Engine {
	regMu.RLock()
	defer regMu.RUnlock()
	all := make([]Engine, 0, len(engines))
	for _, e := range engines {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name() < all[j].Name() })
	return all
}

// FinishUninterruptible reports a completed single-pass run, surfacing a
// cancellation that fired while it ran: such engines have no internal
// checkpoints, so the result — though complete — arrived past deadline
// and is reported as a *result.PartialError carrying the run's stats.
func FinishUninterruptible(ctx context.Context, res *result.Result) (*result.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &result.PartialError{Stats: res.Stats, Phase: "completed (no checkpoints)", Err: err}
	}
	return res, nil
}
