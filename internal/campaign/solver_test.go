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
	"repro/internal/sat/testsolver"
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
	if ec.Engine != sat.InternalSpec(sat.Config{Seed: 3, Restart: sat.RestartGeometric}) {
		t.Errorf("ExpConfig lost solver settings: %+v", ec.Engine)
	}

	// The default (empty) spec resolves to the default engine, so
	// artifacts stay label-free.
	ecDefault, err := p1.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if ecDefault.Engine != sat.InternalSpec(sat.Config{}) {
		t.Errorf("default plan must resolve to the default engine, got %+v", ecDefault.Engine)
	}

	for _, bad := range []string{"frobnicate=1", "kissat:cmd="} {
		cfg := base
		cfg.Solver = bad
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("solver %q accepted at plan time", bad)
		}
	}
}

// TestPlanHeterogeneousEngines: an external engine spec serializes
// through plans and resolves into exp.Config.Engine, and specs naming
// retired engines, or a list of engines, are rejected at plan time.
func TestPlanHeterogeneousEngines(t *testing.T) {
	base := Config{
		Specs:  genbench.Scaled(genbench.TableI, 16, 12)[:2],
		Seed:   7,
		Suites: []string{"summary"},
	}

	single := base
	single.Solver = "kissat"
	p, err := NewPlan(single)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := p.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if ec.Engine != (sat.EngineSpec{Kind: sat.EngineProcess, Cmd: "kissat"}) {
		t.Errorf("kissat solver resolution: %+v", ec.Engine)
	}

	for name, bad := range map[string]string{
		"list":       "internal,kissat",
		"bddSolver":  "bdd",
		"persistent": "kissat:persistent=true",
	} {
		cfg := base
		cfg.Solver = bad
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("%s: accepted at plan time", name)
		}
	}
}

// TestPlanHashBackwardCompatible: optional fields a config leaves unset
// serialize away (omitempty), so plans that never set them keep the
// hashes they were written with.
func TestPlanHashBackwardCompatible(t *testing.T) {
	data, err := json.Marshal(tinyCampaignConfig("summary"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"solver"`, `"memo_dir"`} {
		if strings.Contains(string(data), key) {
			t.Errorf("config without %s serializes it: %s", key, data)
		}
	}
}

// TestReadPlanRejectsUnknownFields: a plan carrying a field this binary
// does not know — adapt_after, written by binaries that still retired
// racing engines mid-run, or portfolio and portfolio_engines, written
// by binaries that still raced engines — fails to load with the field's
// name instead of a hash mismatch that blames a hand edit.
func TestReadPlanRejectsUnknownFields(t *testing.T) {
	plan, err := NewPlan(tinyCampaignConfig("summary"))
	if err != nil {
		t.Fatal(err)
	}
	for field, value := range map[string]any{
		"adapt_after":       40,
		"portfolio":         3,
		"portfolio_engines": "internal,kissat",
	} {
		data, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]any
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		raw["config"].(map[string]any)[field] = value
		if data, err = json.Marshal(raw); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), PlanFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPlan(path); err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`"`) {
			t.Errorf("plan with %s: error %v, want unknown field", field, err)
		}
	}
}

// TestCampaignHeterogeneousMatchesDefault: a campaign whose every
// query goes to the stub DIMACS solver renders the same verdict report
// as the default-engine campaign, and its artifacts record the stub's
// spec where the default campaign's record none.
func TestCampaignHeterogeneousMatchesDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two tiny campaigns")
	}
	ctx := context.Background()
	run := func(cfg Config) (string, *MergeResult) {
		t.Helper()
		plan, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "artifacts")
		if _, err := Run(ctx, plan, dir, RunOptions{Workers: 2}); err != nil {
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
	labels := func(m *MergeResult) map[string]bool {
		out := map[string]bool{}
		for _, a := range m.Artifacts {
			out[a.Outcome.SolverConfig] = true
		}
		return out
	}

	defReport, defMerge := run(tinyCampaignConfig("summary"))
	if got := labels(defMerge); len(got) != 1 || !got[""] {
		t.Errorf("default campaign recorded solver labels %v", got)
	}

	hetCfg := tinyCampaignConfig("summary")
	hetCfg.Solver = "process:cmd=" + testsolver.Build(t)
	hetReport, hetMerge := run(hetCfg)
	if hetReport != defReport {
		t.Errorf("stub campaign report differs from default:\n--- default\n%s\n--- stub\n%s", defReport, hetReport)
	}
	if got := labels(hetMerge); len(got) != 1 || !got[hetCfg.Solver] {
		t.Errorf("stub campaign recorded solver labels %v, want only %q", got, hetCfg.Solver)
	}
}
