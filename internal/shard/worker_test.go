package shard

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ppscan/internal/algotest"
	"ppscan/internal/engine"
	"ppscan/internal/fault"
	"ppscan/internal/gen"
	"ppscan/internal/result"
)

// serveStep sends one gob step request straight into w's handler under
// ctx and returns the recorded response.
func serveStep(t *testing.T, ctx context.Context, w *Worker, req StepRequest) *httptest.ResponseRecorder {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&req); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, PathStep, &body).WithContext(ctx)
	w.Handler().ServeHTTP(rec, hr)
	return rec
}

// rejectionKind decodes a worker's refusal body.
func rejectionKind(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var rej rejection
	if err := json.NewDecoder(rec.Body).Decode(&rej); err != nil {
		t.Fatalf("status %d with an undecodable body: %v", rec.Code, err)
	}
	return rej.Kind
}

// TestSimBlockPanicIsInternalError: a panic contained inside a sim-block
// goroutine is a worker fault, not a client error. Over HTTP it answers
// 500 internal_error; in memory it reaches the caller as a
// *result.WorkerPanicError carrying its stack.
func TestSimBlockPanicIsInternalError(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := algotest.RandomGraph(61)
	th := mustTh(t, "0.4", 3)
	w, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 1, Count: 1},
	}})
	rec := serveStep(t, context.Background(), w,
		StepRequest{Epoch: g.Epoch(), Eps: th.Eps.String(), Mu: th.Mu, Round: RoundSim})
	fault.Disable()
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("sim-block panic answered %d, want 500", rec.Code)
	}
	if kind := rejectionKind(t, rec); kind != rejectInternalErr {
		t.Errorf("sim-block panic answered kind %q, want %q", kind, rejectInternalErr)
	}

	// Every block panics, so every attempt of the sim round fails.
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActPanic, Start: 1, Every: 1},
	}})
	_, err = distEngine{}.RunContext(context.Background(), g, th, engine.Options{Workers: 2}, nil)
	fault.Disable()
	var wpe *result.WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("in-memory sim-block panic returned %v, want a *result.WorkerPanicError in the chain", err)
	}
	if len(wpe.Stack) == 0 {
		t.Error("contained sim-block panic carries no stack")
	}
}

// TestWorkerCancelMidSim: the step handler passes the request context into
// the similarity pass, so a coordinator that gives up on the RPC stops
// the worker's compute. The abandoned pass leaves no state behind: the
// next request recomputes it, and the answer is exact.
func TestWorkerCancelMidSim(t *testing.T) {
	t.Cleanup(fault.Disable)
	g := gen.Roll(20_000, 32, 21)
	th := mustTh(t, "0.5", 4)
	w, err := NewWorker(g, WorkerOptions{Shard: 0, Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the sim block at its start long enough for the cancel to land
	// inside the round.
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Point: fault.WorkerTask, Action: fault.ActDelay, Start: 1, Count: 1, Delay: 50 * time.Millisecond},
	}})
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	rec := serveStep(t, ctx, w, StepRequest{Epoch: g.Epoch(), Eps: th.Eps.String(), Mu: th.Mu, Round: RoundSim})
	fault.Disable()
	if rec.Code == http.StatusOK {
		t.Fatal("handler computed the whole pass for a cancelled request")
	}
	if kind := rejectionKind(t, rec); kind != rejectInternalErr {
		t.Errorf("cancelled round answered kind %q, want %q", kind, rejectInternalErr)
	}

	misses := w.misses.Value()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	c, err := NewCoordinator(g, Options{Shards: [][]string{{srv.URL}}, HeartbeatEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), th.Eps.String(), th.Mu)
	if err != nil {
		t.Fatal(err)
	}
	if d := w.misses.Value() - misses; d != 1 {
		t.Errorf("state misses after the cancelled pass rose by %d, want 1 (one recompute)", d)
	}
	if err := result.Equal(reference(g, th), got); err != nil {
		t.Errorf("recomputed state gives a wrong result: %v", err)
	}
}
