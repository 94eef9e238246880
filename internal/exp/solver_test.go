package exp

import (
	"context"
	"testing"

	"repro/internal/fall"
	"repro/internal/sat"
	"repro/internal/sat/testsolver"
)

// TestHarnessHeterogeneousEngines: a run whose every query goes to the
// stub DIMACS solver reports the same verdict fields as the default
// engine and labels the outcome with the stub's spec, while the default
// run records no solver fields at all.
func TestHarnessHeterogeneousEngines(t *testing.T) {
	cfg := tinyConfig()
	// Timeout 0: verdicts stay pure functions of the seed, so the
	// comparison cannot be perturbed by process start-up time.
	cfg.Timeout = 0
	cs, err := BuildCase(cfg.Specs[0], HD0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := RunFALL(ctx, cs, fall.Unateness, cfg)
	if base.SolverConfig != "" || base.SolveNS != 0 {
		t.Errorf("default run must not record solver fields: %q %d", base.SolverConfig, base.SolveNS)
	}

	hcfg := cfg
	hcfg.Engine = sat.EngineSpec{Kind: sat.EngineProcess, Cmd: testsolver.Build(t)}
	het := RunFALL(ctx, cs, fall.Unateness, hcfg)
	if het.Solved != base.Solved || het.Equivalent != base.Equivalent ||
		het.PlantedKeyMatch != base.PlantedKeyMatch || het.NumKeys != base.NumKeys ||
		het.Failed != base.Failed {
		t.Errorf("stub verdict differs from the default engine:\n  base %+v\n  stub %+v", base, het)
	}
	if het.SolverConfig != hcfg.Engine.String() {
		t.Errorf("solver label %q, want %q", het.SolverConfig, hcfg.Engine.String())
	}
	if het.SolveNS == 0 {
		t.Error("stub run recorded no solve time — factory not plumbed into the attack?")
	}
}

// TestHarnessSolverConfigLabel: a non-default internal config is
// recorded in the outcome.
func TestHarnessSolverConfigLabel(t *testing.T) {
	cfg := tinyConfig()
	cfg.Engine = sat.InternalSpec(sat.Config{Seed: 7, Restart: sat.RestartGeometric})
	cs, err := BuildCase(cfg.Specs[0], HD0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out := RunFALL(context.Background(), cs, fall.Unateness, cfg)
	if out.SolverConfig == "" {
		t.Error("non-default solver config not recorded")
	}
	if out.Failed {
		t.Error("configured run failed")
	}
}
