package attack

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sat"
)

// TestSolverSetupFromFlags pins the single resolution path: every flag
// pair becomes an engine-spec list (nil = the default engine), the
// default internal engine has one label however it is spelled, and an
// integer width records exactly the PortfolioConfigs labels.
func TestSolverSetupFromFlags(t *testing.T) {
	internal := sat.InternalSpec(sat.Config{})
	budgeted := sat.InternalSpec(sat.Config{Seed: 9, ConflictBudget: 1})
	// An integer width is N internal specs labelled exactly like the
	// PortfolioConfigs strings, so ledgers of width runs keep their
	// labels.
	width := func(base sat.Config, n int) []sat.EngineSpec {
		var specs []sat.EngineSpec
		for _, cfg := range sat.PortfolioConfigs(base, n) {
			specs = append(specs, sat.InternalSpec(cfg))
		}
		return specs
	}
	widthLabels := func(base sat.Config, n int) []string {
		var labels []string
		for _, cfg := range sat.PortfolioConfigs(base, n) {
			labels = append(labels, cfg.String())
		}
		return labels
	}
	geo3 := sat.Config{Seed: 3, Restart: sat.RestartGeometric}
	for _, tc := range []struct {
		solver, portfolio string
		specs             []sat.EngineSpec
		label             string
		engines, ledger   []string
	}{
		{"", "", nil, "", []string{"internal"}, nil},
		{"internal", "", []sat.EngineSpec{internal}, "", []string{"internal"}, nil},
		{"", "internal", []sat.EngineSpec{internal}, "", []string{"internal"}, nil},
		{"", "1", nil, "", []string{"internal"}, nil},
		{"seed=3", "", []sat.EngineSpec{sat.InternalSpec(sat.Config{Seed: 3})}, "seed=3", []string{"seed=3"}, nil},
		{"", "3", width(sat.Config{}, 3),
			"portfolio(seed=0 | seed=2654435769,restart=geometric | seed=5308871538,phase=false,vdecay=0.9)",
			widthLabels(sat.Config{}, 3), widthLabels(sat.Config{}, 3)},
		{"seed=3,restart=geometric", "3", width(geo3, 3),
			"portfolio(" + strings.Join(widthLabels(geo3, 3), " | ") + ")",
			widthLabels(geo3, 3), widthLabels(geo3, 3)},
		{"internal:seed=9,budget=1", "", []sat.EngineSpec{budgeted},
			"seed=9,budget=1", []string{"seed=9,budget=1"}, nil},
		{"kissat", "", []sat.EngineSpec{{Kind: sat.EngineProcess, Cmd: "kissat"}},
			"kissat", []string{"kissat"}, nil},
		{"seed=5", "internal,internal:seed=9,budget=1", []sat.EngineSpec{sat.InternalSpec(sat.Config{Seed: 5}), budgeted},
			"portfolio(seed=5 | seed=9,budget=1)", []string{"seed=5", "seed=9,budget=1"}, []string{"seed=5", "seed=9,budget=1"}},
	} {
		name := tc.solver + "/" + tc.portfolio
		s, err := SolverSetupFromFlags(tc.solver, tc.portfolio)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if (s == nil) != (tc.specs == nil) {
			t.Errorf("%s: setup %+v, want nil = %v", name, s, tc.specs == nil)
		}
		if s != nil && !reflect.DeepEqual(s.Specs, tc.specs) {
			t.Errorf("%s: specs %+v, want %+v", name, s.Specs, tc.specs)
		}
		if got := s.Label(); got != tc.label {
			t.Errorf("%s: label %q, want %q", name, got, tc.label)
		}
		if got := s.EngineLabels(); !reflect.DeepEqual(got, tc.engines) {
			t.Errorf("%s: engine labels %q, want %q", name, got, tc.engines)
		}
		var ledger []string
		for _, cs := range s.WinStats() {
			ledger = append(ledger, cs.Config)
		}
		if !reflect.DeepEqual(ledger, tc.ledger) {
			t.Errorf("%s: ledger labels %q, want %q", name, ledger, tc.ledger)
		}
	}
	// Errors: deriving variants of an external engine, non-internal base
	// with a list, bad grammar, the removed bdd engine and persistent
	// sessions, a negative width.
	for _, bad := range [][2]string{
		{"kissat", "3"},
		{"kissat", "internal,cadical"},
		{"frobnicate=1", ""},
		{"", "internal,frobnicate=1"},
		{"bdd", ""},
		{"", "internal,bdd"},
		{"kissat:persistent=true", ""},
		{"", "internal,stub,persistent=true"},
		{"", "internal,internal"},
		{"", "-2"},
	} {
		if s, err := SolverSetupFromFlags(bad[0], bad[1]); err == nil {
			t.Errorf("flags %q/%q accepted: %+v", bad[0], bad[1], s)
		}
	}
}

func TestSolverSetupCheck(t *testing.T) {
	var nilSetup *SolverSetup
	if err := nilSetup.Check(); err != nil {
		t.Errorf("nil setup: %v", err)
	}
	ok := NewSolverSetupEngines([]sat.EngineSpec{sat.InternalSpec(sat.Config{}), sat.InternalSpec(sat.Config{Seed: 9})})
	if err := ok.Check(); err != nil {
		t.Errorf("no process engines: %v", err)
	}
	missing := NewSolverSetupEngines([]sat.EngineSpec{{Kind: sat.EngineProcess, Cmd: "definitely-not-a-sat-solver-7f3a"}})
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

// TestHeterogeneousFactoryVerdicts: a specs-path factory builds racing
// portfolios whose verdicts match the internal engine, and accounts
// races into the setup ledger under spec labels.
func TestHeterogeneousFactoryVerdicts(t *testing.T) {
	setup := NewSolverSetupEngines([]sat.EngineSpec{
		sat.InternalSpec(sat.Config{}),
		sat.InternalSpec(sat.Config{Seed: 9, ConflictBudget: 1}),
	})
	f := setup.Factory()
	e := f(context.Background())
	loadPigeonhole(e, 5, 4)
	if got := e.Solve(); got != sat.Unsat {
		t.Fatalf("verdict %v, want UNSAT", got)
	}
	stats := setup.WinStats()
	if len(stats) != 2 || stats[0].Config != "seed=0" || stats[1].Config != "seed=9,budget=1" {
		t.Fatalf("stats labels: %+v", stats)
	}
	if stats[0].Races+stats[1].Races == 0 || stats[0].Wins+stats[1].Wins != 1 {
		t.Errorf("accounting: %+v", stats)
	}
}
