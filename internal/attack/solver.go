package attack

import (
	"context"
	"fmt"
	"os/exec"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/sat/procengine"
)

// This file is the construction point of the solver backends: sat holds
// the spec grammar (pure data), the backend packages hold the engines,
// and SolverSetup — the only place that imports all of them — turns a
// parsed spec into a SolverFactory.

// SolverSetup bundles a solver configuration into a SolverFactory. One
// setup typically spans one attack run (or one harness case), so its
// solve time and memo counters describe that run.
type SolverSetup struct {
	// Spec is the engine every query runs on (sat.ParseEngineSpec). The
	// zero value is the default internal engine, for setups that exist
	// only to carry a memo or a trace.
	Spec sat.EngineSpec
	// Memo, when non-nil, wraps every engine the factory builds in a
	// verdict-memoizing layer (sat.MemoEngine) sharing this cache, so
	// identical (formula, assumptions) queries — across cells,
	// iterations, or whole runs handing around the same cache — are
	// answered without solving. Hit/miss counters accumulate in the
	// setup (MemoStats).
	Memo *sat.Memo

	memoCtr sat.MemoCounters
	solveNS atomic.Int64
}

// Check verifies the setup is runnable on this machine — a
// process-engine binary resolves on PATH. Entry points call it once so
// a missing solver fails fast instead of surfacing as a stream of
// Unknown verdicts.
func (s *SolverSetup) Check() error {
	if s == nil {
		return nil
	}
	if s.Spec.Kind == sat.EngineProcess {
		if _, err := exec.LookPath(s.Spec.Cmd); err != nil {
			return fmt.Errorf("attack: solver %q not found: %w", s.Spec.Cmd, err)
		}
	}
	return nil
}

// buildEngine constructs one backend engine for spec, bound to ctx.
func buildEngine(ctx context.Context, spec sat.EngineSpec) sat.Engine {
	var e sat.Engine
	if spec.Kind == sat.EngineProcess {
		e = procengine.New(spec.Cmd)
	} else {
		e = sat.NewWith(spec.Config)
	}
	if ctx != nil {
		e.SetContext(ctx)
	}
	return e
}

// Factory returns the SolverFactory realizing the setup; a nil setup
// yields a nil factory (the default engine). The factory is safe for
// concurrent use: the counters it feeds are atomic or mutex-guarded.
func (s *SolverSetup) Factory() SolverFactory {
	if s == nil {
		return nil
	}
	return func(ctx context.Context) sat.Engine {
		return s.wrap(buildEngine(ctx, s.Spec), ctx)
	}
}

// wrap layers the setup's cross-cutting engine middleware over a built
// engine: the shared verdict memo (when enabled), the solve-time
// accumulator, and — when ctx carries a span (obs.With) — one child
// span per solver query (engine label, verdict, conflicts/decisions
// delta, memo tier, cancellation cause). Verdicts and models are
// unchanged — the memo replays query history on misses so cached and
// uncached runs are state-identical, and the timer/tracer only
// observe; an untraced engine pays one nil check per solve.
func (s *SolverSetup) wrap(e sat.Engine, ctx context.Context) sat.Engine {
	if s.Memo != nil {
		me := sat.NewMemoEngine(s.Memo, &s.memoCtr, e)
		if ctx != nil {
			me.SetContext(ctx)
		}
		e = me
	}
	t := &timedEngine{inner: e, ns: &s.solveNS}
	if sp := obs.SpanFrom(ctx); sp != nil {
		t.span = sp
		t.ctx = ctx
		t.label = s.EngineLabel()
	}
	return t
}

// SolveTime returns the cumulative wall time engines built by this
// setup spent inside Solve/SolveAssuming — the solve share of an
// attack's runtime, as opposed to encoding and bookkeeping. Zero for a
// nil setup.
func (s *SolverSetup) SolveTime() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.solveNS.Load())
}

// MemoStats returns the setup's verdict-cache hit/miss counters; nil
// when memoization is off.
func (s *SolverSetup) MemoStats() *sat.MemoStats {
	if s == nil || s.Memo == nil {
		return nil
	}
	st := s.memoCtr.Snapshot()
	return &st
}

// timedEngine accumulates SolveAssuming wall time into the setup's
// counter and, when traced, emits one span per query.
type timedEngine struct {
	inner sat.Engine
	ns    *atomic.Int64

	// span, when non-nil, parents a "query" span per solve; the extra
	// bookkeeping (Stats deltas, memo attribution) only runs then, so
	// the untraced path is one nil check.
	span  *obs.Span
	ctx   context.Context
	label string
}

func (t *timedEngine) NewVar() int                    { return t.inner.NewVar() }
func (t *timedEngine) NumVars() int                   { return t.inner.NumVars() }
func (t *timedEngine) AddClause(lits ...sat.Lit) bool { return t.inner.AddClause(lits...) }
func (t *timedEngine) Solve() sat.Status              { return t.SolveAssuming(nil) }

func (t *timedEngine) SolveAssuming(assumptions []sat.Lit) sat.Status {
	if t.span == nil {
		start := time.Now()
		st := t.inner.SolveAssuming(assumptions)
		t.ns.Add(int64(time.Since(start)))
		return st
	}
	return t.solveTraced(assumptions)
}

// solveTraced is the traced solve path: the span's dur_ns is set to
// exactly the timed window accumulated into the setup's solve
// counter, so tracestat's per-query total reconciles with the
// artifact's solve_ns to the nanosecond.
func (t *timedEngine) solveTraced(assumptions []sat.Lit) sat.Status {
	pre := t.inner.Stats()
	sp := t.span.Child("query", "engine", t.label, "assumptions", len(assumptions))
	start := time.Now()
	st := t.inner.SolveAssuming(assumptions)
	d := time.Since(start)
	t.ns.Add(int64(d))
	delta := t.inner.Stats().Sub(pre)
	sp.Set("verdict", st.String())
	if delta.Conflicts > 0 {
		sp.Set("conflicts", delta.Conflicts)
	}
	if delta.Decisions > 0 {
		sp.Set("decisions", delta.Decisions)
	}
	if me, ok := t.inner.(*sat.MemoEngine); ok {
		// Per-tier hit attribution: "memory", "disk", or "miss".
		sp.Set("memo", me.LastTier().String())
	}
	if st == sat.Unknown && t.ctx != nil && t.ctx.Err() != nil {
		sp.Set("cancel", t.ctx.Err().Error())
	}
	sp.EndAfter(d)
	return st
}

func (t *timedEngine) Value(v int) bool               { return t.inner.Value(v) }
func (t *timedEngine) LitTrue(l sat.Lit) bool         { return t.inner.LitTrue(l) }
func (t *timedEngine) SetContext(ctx context.Context) { t.inner.SetContext(ctx) }
func (t *timedEngine) Stats() sat.Stats               { return t.inner.Stats() }

// NewSolverSetup returns the setup a run builds its engines with: spec,
// carrying memo and, when traced, one span per query. It returns nil —
// the attacks' built-in default engine, whose outcomes carry no solver
// fields — exactly when spec is the default engine, however it is
// spelled, and there is neither a memo nor a trace. Every entry point
// (the CLI flags, the harness, the daemon) decides through it.
func NewSolverSetup(spec sat.EngineSpec, memo *sat.Memo, traced bool) *SolverSetup {
	s := &SolverSetup{Spec: spec, Memo: memo}
	if s.Label() == "" && memo == nil && !traced {
		return nil
	}
	return s
}

// EngineLabel returns the canonical label of the engine the setup
// builds: "internal" for a nil setup or the default engine, the spec
// otherwise. It is the "engines" field of ResultJSON and of attackd
// artifacts, and the engine attribute of query spans.
func (s *SolverSetup) EngineLabel() string {
	if l := s.Label(); l != "" {
		return l
	}
	return "internal"
}

// Label returns a human/artifact-readable description of the setup:
// "" for the default engine however it is spelled (so serialized
// outcomes stay byte-identical to runs without -solver), and the engine
// spec otherwise.
func (s *SolverSetup) Label() string {
	if s == nil || s.Spec == (sat.EngineSpec{}) || s.Spec == sat.InternalSpec(sat.Config{}) {
		return ""
	}
	return s.Spec.String()
}
