package attack

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sat"
)

// TestTimedEngineTraceCancelled: a traced solver query under a
// cancelled context still accumulates its wall into the setup's
// encode-vs-solve split, and the emitted query span carries the
// cancellation cause with a dur_ns equal to the timed window exactly.
func TestTimedEngineTraceCancelled(t *testing.T) {
	ring := obs.NewRing(16)
	root := obs.New(ring).Start("test")

	setup := &SolverSetup{}
	ctx, cancel := context.WithCancel(obs.With(context.Background(), root))
	e := setup.Factory()(ctx)

	// Clause loading is encode time: the solve accumulator must not move.
	loadPigeonhole(e, 6, 5)
	if setup.SolveTime() != 0 {
		t.Fatalf("encoding counted as solve time: %v", setup.SolveTime())
	}

	cancel()
	if got := e.Solve(); got != sat.Unknown {
		t.Fatalf("cancelled solve: %v, want Unknown", got)
	}
	solve := setup.SolveTime()
	if solve <= 0 {
		t.Fatal("cancelled solve accumulated no wall time")
	}

	spans := ring.Snapshot()
	if len(spans) != 1 || spans[0].Name != "query" {
		t.Fatalf("spans: %+v", spans)
	}
	q := spans[0]
	if q.Parent != root.ID() {
		t.Errorf("query parented under %d, want root %d", q.Parent, root.ID())
	}
	if q.Attrs["verdict"] != "UNKNOWN" {
		t.Errorf("verdict attr: %v", q.Attrs["verdict"])
	}
	if q.Attrs["cancel"] != context.Canceled.Error() {
		t.Errorf("cancel attr: %v", q.Attrs["cancel"])
	}
	if q.Attrs["engine"] != "internal" {
		t.Errorf("engine attr: %v", q.Attrs["engine"])
	}
	// The span times exactly the window the solve accumulator saw —
	// the invariant tracestat -reconcile depends on.
	if q.DurNS != int64(solve) {
		t.Errorf("span dur %d != accumulated solve %d", q.DurNS, solve)
	}
}

// TestTimedEngineUntracedSplit: without a trace parent the timer still
// separates solve wall from encode wall, and no spans are emitted.
func TestTimedEngineUntracedSplit(t *testing.T) {
	setup := &SolverSetup{}
	e := setup.Factory()(context.Background())
	loadPigeonhole(e, 5, 4)
	if setup.SolveTime() != 0 {
		t.Fatal("encoding moved the solve accumulator")
	}
	start := time.Now()
	if got := e.Solve(); got != sat.Unsat {
		t.Fatalf("verdict: %v", got)
	}
	wall := time.Since(start)
	solve := setup.SolveTime()
	if solve <= 0 || solve > wall {
		t.Errorf("solve split %v outside (0, %v]", solve, wall)
	}
}
