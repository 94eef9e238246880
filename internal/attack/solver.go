package attack

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/sat/procengine"
)

// This file is the construction point of the heterogeneous solver
// system: sat holds the spec grammar (pure data), the backend packages
// hold the engines, and SolverSetup — the only place that imports all
// of them — turns parsed specs into SolverFactory closures and shares
// one win ledger across every engine a run builds.

// SolverSetup bundles a solver configuration into a SolverFactory, and
// — when racing — accumulates per-engine win statistics across every
// engine the factory builds. One setup typically spans one attack run
// (or one harness case), so its WinStats describe that run.
type SolverSetup struct {
	// Specs is the engine list (sat.ResolveSolverFlags): one spec
	// selects that engine, two or more race per query. Empty builds the
	// default internal engine, for setups that exist only to carry a
	// memo or a trace.
	Specs []sat.EngineSpec
	// Memo, when non-nil, wraps every engine the factory builds in a
	// verdict-memoizing layer (sat.MemoEngine) sharing this cache, so
	// identical (formula, assumptions) queries — across cells,
	// iterations, or whole runs handing around the same cache — are
	// answered without solving. Hit/miss counters accumulate in the
	// setup (MemoStats).
	Memo *sat.Memo

	ledger  *sat.Ledger
	memoCtr sat.MemoCounters
	solveNS atomic.Int64
}

// NewSolverSetupEngines builds a setup racing the given engine specs
// (a single spec selects that engine without racing or accounting).
func NewSolverSetupEngines(specs []sat.EngineSpec) *SolverSetup {
	s := &SolverSetup{Specs: specs}
	if len(specs) >= 2 {
		s.ledger = sat.NewLedgerLabels(sat.EngineLabels(specs))
	}
	return s
}

// Check verifies the setup is runnable on this machine — every
// process-engine binary resolves on PATH. Entry points call it once so
// a missing solver fails fast instead of surfacing as a stream of
// Unknown verdicts.
func (s *SolverSetup) Check() error {
	if s == nil {
		return nil
	}
	for _, spec := range s.Specs {
		if spec.Kind == sat.EngineProcess {
			if _, err := exec.LookPath(spec.Cmd); err != nil {
				return fmt.Errorf("attack: solver %q not found: %w", spec.Cmd, err)
			}
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
// concurrent use: portfolios built by different workers share the
// setup's ledger, which is mutex-guarded.
func (s *SolverSetup) Factory() SolverFactory {
	if s == nil {
		return nil
	}
	return func(ctx context.Context) sat.Engine {
		if len(s.Specs) < 2 {
			spec := sat.InternalSpec(sat.Config{})
			if len(s.Specs) == 1 {
				spec = s.Specs[0]
			}
			return s.wrap(buildEngine(ctx, spec), ctx)
		}
		engines := make([]sat.Engine, len(s.Specs))
		for i, spec := range s.Specs {
			engines[i] = buildEngine(ctx, spec)
		}
		p := sat.NewEnginePortfolio(engines, s.ledger)
		p.SetContext(ctx)
		return s.wrap(p, ctx)
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
		t.label = s.Label()
		if t.label == "" {
			t.label = "internal"
		}
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

// SolverSetupFromFlags resolves the -solver/-portfolio flag pair
// (sat.ResolveSolverFlags) into a setup. Both flags unset (or a width
// below 2 with no solver) yield a nil setup: the attacks' built-in
// default engine, byte-identical to not passing the flags at all.
func SolverSetupFromFlags(solver, portfolio string) (*SolverSetup, error) {
	specs, err := sat.ResolveSolverFlags(solver, portfolio)
	if specs == nil {
		return nil, err
	}
	return NewSolverSetupEngines(specs), nil
}

// EngineLabels returns the canonical label of every engine the setup
// resolves to, in racing order — ["internal"] for a nil setup or the
// default single engine, the spec labels otherwise. This is the
// "engines" field of ResultJSON and of attackd artifacts.
func (s *SolverSetup) EngineLabels() []string {
	if s.Label() == "" {
		return []string{"internal"}
	}
	return sat.EngineLabels(s.Specs)
}

// FprintStats writes one racing-statistics line per engine — the
// shared rendering of the CLIs' stderr reports.
func FprintStats(w io.Writer, stats []sat.ConfigStats) {
	for _, cs := range stats {
		fmt.Fprintf(w, "portfolio %-44s races %4d wins %4d (sat %d, unsat %d) conflicts %d\n",
			cs.Config, cs.Races, cs.Wins, cs.SatWins, cs.UnsatWins, cs.Conflicts)
	}
}

// FprintWinStats writes the setup's racing statistics (no-op for nil
// or non-racing setups).
func (s *SolverSetup) FprintWinStats(w io.Writer) {
	FprintStats(w, s.WinStats())
}

// WinStats returns the per-engine portfolio statistics accumulated so
// far; nil when the setup does not race (nothing to account).
func (s *SolverSetup) WinStats() []sat.ConfigStats {
	if s == nil || s.ledger == nil {
		return nil
	}
	return s.ledger.Snapshot()
}

// Label returns a human/artifact-readable description of the setup:
// "" for the default single engine however it is spelled (so serialized
// outcomes stay byte-identical to pre-portfolio ones), the engine spec
// for a single non-default engine, and "portfolio(<spec> | ...)" for
// racing.
func (s *SolverSetup) Label() string {
	switch {
	case s == nil || len(s.Specs) == 0 || (len(s.Specs) == 1 && s.Specs[0] == sat.InternalSpec(sat.Config{})):
		return ""
	case len(s.Specs) == 1:
		return s.Specs[0].String()
	}
	return fmt.Sprintf("portfolio(%s)", strings.Join(sat.EngineLabels(s.Specs), " | "))
}
