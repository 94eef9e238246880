package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestParseConfigRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"seed=7",
		"seed=3,restart=geometric",
		"seed=1,phase=random,rand=0.05",
		"seed=0,restart=geometric,base=50,growth=2,phase=false,vdecay=0.9,cdecay=0.99,budget=1000",
	}
	for _, spec := range cases {
		c, err := ParseConfig(spec)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", spec, err)
		}
		c2, err := ParseConfig(c.String())
		if err != nil {
			t.Fatalf("ParseConfig(String(%q)=%q): %v", spec, c.String(), err)
		}
		if c != c2 {
			t.Errorf("round trip of %q: %+v != %+v", spec, c, c2)
		}
	}
}

func TestParseConfigRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"seed", "seed=x", "restart=magic", "phase=up",
		"vdecay=2", "vdecay=0", "rand=1.5", "base=0", "growth=0.5",
		"frobnicate=1",
	} {
		if _, err := ParseConfig(spec); err == nil {
			t.Errorf("ParseConfig(%q) accepted a bad spec", spec)
		}
	}
}

func TestZeroConfigIsDefault(t *testing.T) {
	if got, want := (Config{}).withDefaults(), DefaultConfig(); got != want {
		t.Errorf("zero config normalizes to %+v, want %+v", got, want)
	}
	d, err := ParseConfig("")
	if err != nil || d != DefaultConfig() {
		t.Errorf("ParseConfig(\"\") = %+v, %v", d, err)
	}
}

// solverConfigs lists heuristic corners exercised by the determinism
// and verdict-agreement tests: every restart/phase/decay/random axis.
func solverConfigs() []Config {
	return []Config{
		{},
		{Seed: 42},
		{Restart: RestartGeometric, RestartBase: 50, RestartGrowth: 2},
		{Phase: PhaseTrue},
		{Phase: PhaseFalse, VarDecay: 0.9},
		{Seed: 7, Phase: PhaseRandom},
		{Seed: 9, RandomFreq: 0.1},
		{Seed: 11, RandomFreq: 0.05, Phase: PhaseRandom, Restart: RestartGeometric},
	}
}

// runInstance loads a deterministic instance into a fresh engine and
// solves it, returning the verdict, the model (for SAT) and the
// conflict count.
func runInstance(cfg Config, load func(e Engine)) (Status, []bool, int64) {
	s := NewWith(cfg)
	load(s)
	st := s.Solve()
	var model []bool
	if st == Sat {
		model = make([]bool, s.NumVars())
		for v := range model {
			model[v] = s.Value(v)
		}
	}
	return st, model, s.Stats().Conflicts
}

// instanceTable returns named loaders for a mix of SAT and UNSAT
// instances (the determinism and search-trajectory verdict table).
func instanceTable() map[string]func(e Engine) {
	loaders := map[string]func(e Engine){
		"php65-unsat": func(e Engine) { pigeonholeEngine(e, 6, 5) },
		"php55-sat":   func(e Engine) { pigeonholeEngine(e, 5, 5) },
		"xor-chain-sat": func(e Engine) {
			vars := make([]int, 12)
			for i := range vars {
				vars[i] = e.NewVar()
			}
			for i := 0; i+1 < len(vars); i++ {
				e.AddClause(PosLit(vars[i]), PosLit(vars[i+1]))
				e.AddClause(NegLit(vars[i]), NegLit(vars[i+1]))
			}
			e.AddClause(PosLit(vars[0]))
		},
	}
	for _, seed := range []int64{3, 17, 99} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		nVars := 8 + rng.Intn(8)
		cnf := randomCNF(rng, nVars, 30+rng.Intn(40))
		want, _ := bruteForce(nVars, cnf)
		name := "rand-sat"
		if !want {
			name = "rand-unsat"
		}
		loaders[fmtName(name, seed)] = func(e Engine) {
			for i := 0; i < nVars; i++ {
				e.NewVar()
			}
			for _, cl := range cnf {
				e.AddClause(cl...)
			}
		}
	}
	return loaders
}

func fmtName(base string, seed int64) string {
	return base + "-" + string(rune('0'+seed%10)) + string(rune('a'+seed/10))
}

// pigeonholeEngine is pigeonhole over the Engine interface.
func pigeonholeEngine(e Engine, p, h int) {
	v := make([][]int, p)
	for i := range v {
		v[i] = make([]int, h)
		for j := range v[i] {
			v[i][j] = e.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		lits := make([]Lit, h)
		for j := 0; j < h; j++ {
			lits[j] = PosLit(v[i][j])
		}
		e.AddClause(lits...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				e.AddClause(NegLit(v[i1][j]), NegLit(v[i2][j]))
			}
		}
	}
}

// TestConfigDeterminism: the same Config (seed included) must yield an
// identical verdict, identical model and identical conflict count on
// repeated runs — even for configurations that use the seeded RNG.
func TestConfigDeterminism(t *testing.T) {
	for name, load := range instanceTable() {
		for _, cfg := range solverConfigs() {
			st1, m1, c1 := runInstance(cfg, load)
			st2, m2, c2 := runInstance(cfg, load)
			if st1 != st2 {
				t.Fatalf("%s/%s: verdicts differ across runs: %v vs %v", name, cfg, st1, st2)
			}
			if c1 != c2 {
				t.Errorf("%s/%s: conflict counts differ: %d vs %d", name, cfg, c1, c2)
			}
			if len(m1) != len(m2) {
				t.Fatalf("%s/%s: model sizes differ", name, cfg)
			}
			for v := range m1 {
				if m1[v] != m2[v] {
					t.Errorf("%s/%s: models differ at x%d", name, cfg, v)
					break
				}
			}
		}
	}
}

// TestConfigVerdictAgreement: every configuration must agree with the
// baseline verdict on every table instance (heuristics change runtime,
// never soundness).
func TestConfigVerdictAgreement(t *testing.T) {
	for name, load := range instanceTable() {
		base, _, _ := runInstance(Config{}, load)
		for _, cfg := range solverConfigs() {
			if st, _, _ := runInstance(cfg, load); st != base {
				t.Errorf("%s: config %s verdict %v, baseline %v", name, cfg, st, base)
			}
		}
	}
}

// TestStatsAccumulate pins the documented Stats semantics: counters
// accumulate monotonically across SolveAssuming calls and are never
// reset; per-call figures come from snapshot subtraction.
func TestStatsAccumulate(t *testing.T) {
	s := New()
	pigeonholeEngine(s, 6, 5)
	before := s.Stats()
	if before.SolveCalls != 0 {
		t.Fatalf("fresh solver has SolveCalls %d", before.SolveCalls)
	}
	s.Solve()
	first := s.Stats()
	if first.SolveCalls != 1 || first.Conflicts == 0 {
		t.Fatalf("after first solve: %+v", first)
	}
	// A second (incremental) call must only grow the counters.
	s.SolveAssuming(nil)
	second := s.Stats()
	if second.SolveCalls != 2 {
		t.Errorf("SolveCalls = %d, want 2", second.SolveCalls)
	}
	if second.Conflicts < first.Conflicts || second.Decisions < first.Decisions ||
		second.Propagations < first.Propagations || second.Restarts < first.Restarts {
		t.Errorf("counters regressed: first %+v, second %+v", first, second)
	}
	delta := second.Sub(first)
	if delta.SolveCalls != 1 {
		t.Errorf("snapshot delta SolveCalls = %d, want 1", delta.SolveCalls)
	}
	if got := first.Add(delta); got != second {
		t.Errorf("Add/Sub do not invert: %+v + %+v = %+v, want %+v", first, delta, got, second)
	}
}

// TestDeadlineFoldsIntoContext: a wall-clock budget is a deadline on
// the solver's context, and composing it with a cancellable parent
// honors whichever budget is tighter.
func TestDeadlineFoldsIntoContext(t *testing.T) {
	s := New()
	pigeonholeEngine(s, 9, 8)
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	expired, cancelExpired := context.WithDeadline(parent, time.Now().Add(-time.Second))
	defer cancelExpired()
	s.SetContext(expired)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("live parent + expired deadline: got %v, want UNKNOWN", got)
	}
	// A cancelled parent expires a child whose deadline is far away.
	far, cancelFar := context.WithDeadline(parent, time.Now().Add(time.Hour))
	defer cancelFar()
	cancel()
	s.SetContext(far)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("cancelled parent + far deadline: got %v, want UNKNOWN", got)
	}
	// Detaching the context clears every budget.
	s.SetContext(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("all budgets cleared: got %v, want UNSAT", got)
	}
}
