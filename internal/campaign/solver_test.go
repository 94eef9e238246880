package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
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

// TestPlanWidthAdapts: an integer width is an engine list, so a plan
// racing -portfolio 3 takes adapt_after, and a learned re-run drops the
// engine a prior stats file records as a chronic loser.
func TestPlanWidthAdapts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tiny campaign")
	}
	cfg := tinyCampaignConfig("summary")
	cfg.Specs = cfg.Specs[:1]
	cfg.Portfolio, cfg.AdaptAfter = 3, 2
	plan, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := plan.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	labels := sat.EngineLabels(ec.Engines)
	if len(labels) != 3 {
		t.Fatalf("width 3 resolved to %q", labels)
	}
	prior := []sat.ConfigStats{{Config: labels[1], Races: 4, Wins: 4}, {Config: labels[2], Races: 4}}
	statsPath := filepath.Join(t.TempDir(), "portfolio_stats.json")
	if err := sat.WriteStatsFile(statsPath, prior); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "artifacts")
	if _, err := Run(context.Background(), plan, dir, RunOptions{Workers: 2, LearnFrom: statsPath}); err != nil {
		t.Fatal(err)
	}
	m, err := Merge(plan, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	var raced []string
	for _, cs := range m.WinStats() {
		raced = append(raced, cs.Config)
	}
	if want := []string{labels[1], labels[0]}; !reflect.DeepEqual(raced, want) {
		t.Errorf("learned width run raced %q, want %q (winner first, loser dropped)", raced, want)
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
	het.AdaptAfter = 10
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
	if ec.AdaptAfter != 10 {
		t.Errorf("adapt_after lost: %d", ec.AdaptAfter)
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
		"adaptNoList":   {Solver: "seed=1", AdaptAfter: 5},
		"bddSolver":     {Solver: "bdd"},
		"bddInList":     {PortfolioEngines: "internal,bdd"},
		"persistent":    {Solver: "kissat:persistent=true"},
	} {
		cfg := base
		cfg.Solver, cfg.Portfolio, cfg.PortfolioEngines, cfg.AdaptAfter =
			bad.Solver, bad.Portfolio, bad.PortfolioEngines, bad.AdaptAfter
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
	for _, key := range []string{"portfolio_engines", "adapt_after"} {
		if strings.Contains(string(data), key) {
			t.Errorf("legacy config serializes new key %q: %s", key, data)
		}
	}
}

// TestCampaignHeterogeneousMatchesDefault: a campaign racing the
// default internal engine against a budgeted one that gives up at its
// first conflict (with mid-run adaptation) renders the same
// verdict report as the default single-engine campaign, records
// portfolio stats under spec labels, aggregates them in WinStats, and
// its stats file feeds a learned re-run.
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
	hetCfg.AdaptAfter = 50
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

	// Learned re-run: persist the snapshot, re-run from scratch with
	// -learn-from, and get the same report again.
	statsPath := filepath.Join(t.TempDir(), "portfolio_stats.json")
	if err := sat.WriteStatsFile(statsPath, stats); err != nil {
		t.Fatal(err)
	}
	learnedReport, _ := run(hetCfg, RunOptions{Workers: 2, LearnFrom: statsPath})
	if learnedReport != defReport {
		t.Error("learned campaign report differs from default")
	}
}
