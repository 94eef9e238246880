package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fall"
	"repro/internal/sat"
)

// TestHarnessPortfolioVerdictsMatch: the same case scored with per-query
// portfolio racing must report the same verdict fields as the default
// single engine (racing changes runtimes, never verdicts), and must
// carry the solver label and win accounting in the outcome.
func TestHarnessPortfolioVerdictsMatch(t *testing.T) {
	cfg := tinyConfig()
	cs, err := BuildCase(cfg.Specs[0], HD0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := RunFALL(ctx, cs, fall.Unateness, cfg)
	if base.SolverConfig != "" || base.PortfolioStats != nil {
		t.Errorf("default run must not record solver fields: %q %v", base.SolverConfig, base.PortfolioStats)
	}

	pcfg := cfg
	if pcfg.Engines, err = sat.ResolveSolverFlags("", "3"); err != nil {
		t.Fatal(err)
	}
	port := RunFALL(ctx, cs, fall.Unateness, pcfg)
	if port.Solved != base.Solved || port.Equivalent != base.Equivalent ||
		port.PlantedKeyMatch != base.PlantedKeyMatch || port.NumKeys != base.NumKeys ||
		port.Failed != base.Failed {
		t.Errorf("portfolio verdict differs from single engine:\n  base %+v\n  port %+v", base, port)
	}
	if port.SolverConfig == "" {
		t.Error("portfolio run must record its solver config")
	}
	if len(port.PortfolioStats) != 3 {
		t.Fatalf("portfolio run recorded %d config stats, want 3", len(port.PortfolioStats))
	}
	var wins int64
	for _, cs := range port.PortfolioStats {
		wins += cs.Wins
	}
	if wins == 0 {
		t.Error("no portfolio wins recorded — factory not plumbed into the attack?")
	}
}

// TestHarnessHeterogeneousEngines: racing an explicit engine list (the
// default engine and a budgeted one that gives up at its first
// conflict) reports the same verdict fields as the default engine,
// labels the outcome with the heterogeneous portfolio, and accounts
// races under the spec labels. WinStats aggregates them.
func TestHarnessHeterogeneousEngines(t *testing.T) {
	cfg := tinyConfig()
	// Timeout 0: verdicts stay pure functions of the seed, so the
	// comparison cannot be perturbed by racing overhead.
	cfg.Timeout = 0
	cs, err := BuildCase(cfg.Specs[0], HD0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := RunFALL(ctx, cs, fall.Unateness, cfg)

	hcfg := cfg
	hcfg.Engines = []sat.EngineSpec{
		sat.InternalSpec(sat.Config{}),
		sat.InternalSpec(sat.Config{Seed: 9, ConflictBudget: 1}),
	}
	het := RunFALL(ctx, cs, fall.Unateness, hcfg)
	if het.Solved != base.Solved || het.Equivalent != base.Equivalent ||
		het.PlantedKeyMatch != base.PlantedKeyMatch || het.NumKeys != base.NumKeys ||
		het.Failed != base.Failed {
		t.Errorf("heterogeneous verdict differs from single engine:\n  base %+v\n  het  %+v", base, het)
	}
	if !strings.Contains(het.SolverConfig, "budget=1") {
		t.Errorf("solver label %q does not name the engine mix", het.SolverConfig)
	}
	if len(het.PortfolioStats) != 2 || het.PortfolioStats[1].Config != "seed=9,budget=1" {
		t.Fatalf("portfolio stats: %+v", het.PortfolioStats)
	}
	agg := WinStats([]UnitResult{{Outcome: &base}, {Outcome: &het}})
	if len(agg) != 2 || agg[0].Races != het.PortfolioStats[0].Races {
		t.Errorf("WinStats aggregation: %+v", agg)
	}
}

// TestHarnessSolverConfigLabel: a non-default single-engine config is
// recorded without portfolio stats.
func TestHarnessSolverConfigLabel(t *testing.T) {
	cfg := tinyConfig()
	cfg.Engines = []sat.EngineSpec{sat.InternalSpec(sat.Config{Seed: 7, Restart: sat.RestartGeometric})}
	cs, err := BuildCase(cfg.Specs[0], HD0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out := RunFALL(context.Background(), cs, fall.Unateness, cfg)
	if out.SolverConfig == "" {
		t.Error("non-default solver config not recorded")
	}
	if out.PortfolioStats != nil {
		t.Errorf("single-engine run must not carry portfolio stats: %v", out.PortfolioStats)
	}
	if out.Failed {
		t.Error("configured run failed")
	}
}
