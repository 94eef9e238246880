package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/genbench"
	"repro/internal/sat"
)

// TestPlanSolverConfig: solver settings are part of a plan's identity,
// survive serialization, and reject bad specs at plan time.
func TestPlanSolverConfig(t *testing.T) {
	base := Config{
		Specs:  genbench.Scaled(genbench.TableI, 16, 12)[:2],
		Seed:   7,
		Suites: []string{"summary"},
	}
	p1, err := NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}

	withSolver := base
	withSolver.Solver = "seed=3,restart=geometric"
	withSolver.Portfolio = 3
	p2, err := NewPlan(withSolver)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash == p2.Hash {
		t.Error("solver settings must change the plan hash")
	}
	ec, err := p2.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(ec.Engines) != 3 || ec.Engines[0].Config.Seed != 3 || ec.Engines[0].Config.Restart != sat.RestartGeometric {
		t.Errorf("ExpConfig lost solver settings: %+v", ec.Engines)
	}

	// Default (empty) spec resolves to no engine list so artifacts stay
	// label-free.
	ecDefault, err := p1.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if ecDefault.Engines != nil {
		t.Errorf("default plan must resolve to the default engine, got %+v", ecDefault.Engines)
	}

	for _, bad := range []Config{{Solver: "frobnicate=1"}, {Solver: "kissat:cmd="}, {Portfolio: -2}} {
		cfg := base
		cfg.Solver, cfg.Portfolio = bad.Solver, bad.Portfolio
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("solver %q portfolio %d accepted at plan time", bad.Solver, bad.Portfolio)
		}
	}
}

// TestPlanHeterogeneousEngines: engine lists serialize through plans,
// resolve into exp.Config.Engines, and bad combinations are rejected
// at plan time.
func TestPlanHeterogeneousEngines(t *testing.T) {
	base := Config{
		Specs:  genbench.Scaled(genbench.TableI, 16, 12)[:2],
		Seed:   7,
		Suites: []string{"summary"},
	}

	het := base
	het.Solver = "seed=5"
	het.PortfolioEngines = "internal,internal:seed=9,budget=1"
	p, err := NewPlan(het)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := p.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(ec.Engines) != 2 || ec.Engines[0].Config.Seed != 5 || ec.Engines[1].Config.ConflictBudget != 1 {
		t.Errorf("engines lost in resolution: %+v", ec.Engines)
	}

	// A single non-internal -solver also lands in Engines.
	single := base
	single.Solver = "kissat"
	ec, err = single.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(ec.Engines) != 1 || ec.Engines[0] != (sat.EngineSpec{Kind: sat.EngineProcess, Cmd: "kissat"}) {
		t.Errorf("kissat solver resolution: %+v", ec.Engines)
	}

	for name, bad := range map[string]Config{
		"badList":       {Solver: "", PortfolioEngines: "internal,frobnicate=1"},
		"widthAndList":  {Portfolio: 3, PortfolioEngines: "internal,kissat"},
		"externalBase":  {Solver: "kissat", PortfolioEngines: "internal,cadical"},
		"widthExternal": {Solver: "kissat", Portfolio: 3},
		"bddSolver":     {Solver: "bdd"},
		"bddInList":     {PortfolioEngines: "internal,bdd"},
		"persistent":    {Solver: "kissat:persistent=true"},
	} {
		cfg := base
		cfg.Solver, cfg.Portfolio, cfg.PortfolioEngines = bad.Solver, bad.Portfolio, bad.PortfolioEngines
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("%s: accepted at plan time", name)
		}
	}
}

// TestPlanHashBackwardCompatible: configs that do not use the new
// fields serialize without them (omitempty), so plan hashes of
// pre-heterogeneous flag forms are unchanged by this refactor.
func TestPlanHashBackwardCompatible(t *testing.T) {
	cfg := tinyCampaignConfig("summary")
	cfg.Solver = "seed=3"
	cfg.Portfolio = 3
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "portfolio_engines") {
		t.Errorf("legacy config serializes new key portfolio_engines: %s", data)
	}
}

// TestReadPlanRejectsUnknownFields: a plan carrying a field this binary
// does not know — adapt_after, written by binaries that still retired
// racing engines mid-run — fails to load with the field's name instead
// of a hash mismatch that blames a hand edit.
func TestReadPlanRejectsUnknownFields(t *testing.T) {
	plan, err := NewPlan(tinyCampaignConfig("summary"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["config"].(map[string]any)["adapt_after"] = 40
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), PlanFileName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlan(path); err == nil || !strings.Contains(err.Error(), `unknown field "adapt_after"`) {
		t.Errorf("plan with adapt_after: error %v, want unknown field", err)
	}
}

// TestCampaignHeterogeneousMatchesDefault: a campaign racing the
// default internal engine against a budgeted one that gives up at its
// first conflict renders the same verdict report as the default
// single-engine campaign, records portfolio stats under spec labels,
// and aggregates them in WinStats.
func TestCampaignHeterogeneousMatchesDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two tiny campaigns")
	}
	ctx := context.Background()
	run := func(cfg Config, opts RunOptions) (string, *MergeResult) {
		t.Helper()
		plan, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "artifacts")
		if _, err := Run(ctx, plan, dir, opts); err != nil {
			t.Fatal(err)
		}
		m, err := Merge(plan, []string{dir})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := m.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), m
	}

	defCfg := tinyCampaignConfig("summary")
	defReport, defMerge := run(defCfg, RunOptions{Workers: 2})
	if stats := defMerge.WinStats(); stats != nil {
		t.Errorf("default campaign recorded stats: %+v", stats)
	}

	hetCfg := tinyCampaignConfig("summary")
	hetCfg.PortfolioEngines = "internal,internal:seed=9,budget=1"
	hetReport, hetMerge := run(hetCfg, RunOptions{Workers: 2})
	if hetReport != defReport {
		t.Errorf("heterogeneous campaign report differs from default:\n--- default\n%s\n--- heterogeneous\n%s", defReport, hetReport)
	}
	stats := hetMerge.WinStats()
	if len(stats) != 2 || stats[0].Config != "seed=0" || stats[1].Config != "seed=9,budget=1" {
		t.Fatalf("campaign stats: %+v", stats)
	}
	if stats[0].Races == 0 {
		t.Error("no races recorded")
	}

}
