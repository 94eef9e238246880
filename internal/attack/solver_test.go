package attack

import (
	"context"
	"testing"

	"repro/internal/sat"
	"repro/internal/sat/testsolver"
)

// TestSolverSetupFromFlags pins how a -solver value resolves to a
// setup through NewSolverSetup: it parses to one engine spec, and the
// default internal engine, however it is spelled, resolves to a nil
// setup labelled "internal" unless a memo or a trace asks for one.
func TestSolverSetupFromFlags(t *testing.T) {
	for _, tc := range []struct {
		solver        string
		spec          sat.EngineSpec // the zero spec: a nil setup
		label, engine string
	}{
		{"", sat.EngineSpec{}, "", "internal"},
		{"internal", sat.EngineSpec{}, "", "internal"},
		{"seed=0", sat.EngineSpec{}, "", "internal"},
		{"seed=3", sat.InternalSpec(sat.Config{Seed: 3}), "seed=3", "seed=3"},
		{"internal:seed=9,budget=1", sat.InternalSpec(sat.Config{Seed: 9, ConflictBudget: 1}),
			"seed=9,budget=1", "seed=9,budget=1"},
		{"kissat", sat.EngineSpec{Kind: sat.EngineProcess, Cmd: "kissat"}, "kissat", "kissat"},
	} {
		spec, err := sat.ParseEngineSpec(tc.solver)
		if err != nil {
			t.Errorf("%q: %v", tc.solver, err)
			continue
		}
		s := NewSolverSetup(spec, nil, false)
		if (s == nil) != (tc.spec == sat.EngineSpec{}) || (s != nil && s.Spec != tc.spec) {
			t.Errorf("%q: setup %+v, want spec %+v", tc.solver, s, tc.spec)
		}
		if got := s.Label(); got != tc.label {
			t.Errorf("%q: label %q, want %q", tc.solver, got, tc.label)
		}
		if got := s.EngineLabel(); got != tc.engine {
			t.Errorf("%q: engine label %q, want %q", tc.solver, got, tc.engine)
		}
		// A memo or a trace alone gets a setup on the same engine.
		memo := sat.NewMemo(16)
		if s := NewSolverSetup(spec, memo, false); s == nil || s.Memo != memo || s.EngineLabel() != tc.engine {
			t.Errorf("%q with a memo: setup %+v, want engine %q carrying the memo", tc.solver, s, tc.engine)
		}
		if s := NewSolverSetup(spec, nil, true); s == nil || s.EngineLabel() != tc.engine {
			t.Errorf("%q traced: setup %+v, want engine %q", tc.solver, s, tc.engine)
		}
	}
	// Errors: bad grammar, the removed bdd engine and persistent
	// sessions.
	for _, bad := range []string{"frobnicate=1", "bdd", "kissat:persistent=true"} {
		if spec, err := sat.ParseEngineSpec(bad); err == nil {
			t.Errorf("-solver %q accepted: %+v", bad, spec)
		}
	}
}

func TestSolverSetupCheck(t *testing.T) {
	var nilSetup *SolverSetup
	if err := nilSetup.Check(); err != nil {
		t.Errorf("nil setup: %v", err)
	}
	ok := &SolverSetup{Spec: sat.InternalSpec(sat.Config{Seed: 9})}
	if err := ok.Check(); err != nil {
		t.Errorf("internal engine: %v", err)
	}
	missing := &SolverSetup{Spec: sat.EngineSpec{Kind: sat.EngineProcess, Cmd: "definitely-not-a-sat-solver-7f3a"}}
	if err := missing.Check(); err == nil {
		t.Error("missing binary not reported")
	}
}

// loadPigeonhole fills an engine with an UNSAT pigeonhole instance.
func loadPigeonhole(e sat.Engine, p, h int) {
	v := make([][]int, p)
	for i := range v {
		v[i] = make([]int, h)
		for j := range v[i] {
			v[i][j] = e.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		lits := make([]sat.Lit, h)
		for j := 0; j < h; j++ {
			lits[j] = sat.PosLit(v[i][j])
		}
		e.AddClause(lits...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				e.AddClause(sat.NegLit(v[i1][j]), sat.NegLit(v[i2][j]))
			}
		}
	}
}

// TestHeterogeneousFactoryVerdicts: a factory over the stub DIMACS
// solver decides every query through the process pipe and matches the
// default engine on an UNSAT and a SAT pigeonhole instance.
func TestHeterogeneousFactoryVerdicts(t *testing.T) {
	setup := &SolverSetup{Spec: sat.EngineSpec{Kind: sat.EngineProcess, Cmd: testsolver.Build(t)}}
	f := setup.Factory()
	for _, holes := range []int{4, 5} {
		want := NewSolver(context.Background())
		loadPigeonhole(want, 5, holes)
		e := f(context.Background())
		loadPigeonhole(e, 5, holes)
		if got, want := e.Solve(), want.Solve(); got != want {
			t.Errorf("PHP(5,%d): stub verdict %v, default engine %v", holes, got, want)
		}
	}
	if setup.SolveTime() == 0 {
		t.Error("no solve time recorded — factory not used?")
	}
}
