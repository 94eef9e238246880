package sat

import (
	"context"
	"testing"
	"time"
)

// internalPortfolio races fresh internal solvers over configs.
func internalPortfolio(configs []Config, ledger *Ledger) *Portfolio {
	engines := make([]Engine, len(configs))
	for i, cfg := range configs {
		engines[i] = NewWith(cfg)
	}
	return NewEnginePortfolio(engines, ledger)
}

// configLabels returns the ledger labels of configs.
func configLabels(configs []Config) []string {
	labels := make([]string, len(configs))
	for i, cfg := range configs {
		labels[i] = cfg.String()
	}
	return labels
}

// TestPortfolioVerdictsMatchSingleEngine: for every instance in the
// SAT/UNSAT table and every portfolio width, the racing verdict must
// equal the single-engine verdict, and a SAT portfolio model must
// satisfy the formula it reports on.
func TestPortfolioVerdictsMatchSingleEngine(t *testing.T) {
	for name, load := range instanceTable() {
		single, _, _ := runInstance(Config{}, load)
		for _, n := range []int{2, 3, 5} {
			p := internalPortfolio(PortfolioConfigs(Config{Seed: 1}, n), nil)
			load(p)
			if got := p.Solve(); got != single {
				t.Errorf("%s: portfolio(%d) verdict %v, single engine %v", name, n, got, single)
			}
		}
	}
}

func TestPortfolioModelSatisfiesClauses(t *testing.T) {
	p := internalPortfolio(PortfolioConfigs(Config{Seed: 3}, 4), nil)
	pigeonholeEngine(p, 5, 5)
	if got := p.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): got %v, want SAT", got)
	}
	// Each pigeon must sit in exactly one hole per the model.
	n := p.NumVars()
	holes := 5
	for pi := 0; pi < 5; pi++ {
		count := 0
		for hi := 0; hi < holes; hi++ {
			if p.Value(pi*holes + hi) {
				count++
			}
		}
		if count == 0 {
			t.Errorf("pigeon %d unplaced in portfolio model (of %d vars)", pi, n)
		}
	}
}

// TestPortfolioIncremental: assumptions and incremental clause addition
// must work across races exactly as on a single engine.
func TestPortfolioIncremental(t *testing.T) {
	p := internalPortfolio(PortfolioConfigs(Config{}, 3), nil)
	a, b := p.NewVar(), p.NewVar()
	p.AddClause(NegLit(a), PosLit(b)) // a -> b
	if got := p.SolveAssuming([]Lit{PosLit(a), NegLit(b)}); got != Unsat {
		t.Fatalf("assuming a & ~b with a->b: got %v, want UNSAT", got)
	}
	if got := p.SolveAssuming([]Lit{PosLit(a)}); got != Sat {
		t.Fatalf("assuming a: got %v, want SAT", got)
	}
	if !p.Value(b) {
		t.Error("model must satisfy b under assumption a")
	}
	p.AddClause(NegLit(b))
	if got := p.SolveAssuming([]Lit{PosLit(a)}); got != Unsat {
		t.Fatalf("after adding ~b, assuming a: got %v, want UNSAT", got)
	}
	if got := p.Solve(); got != Sat {
		t.Fatalf("unconstrained: got %v, want SAT", got)
	}
}

func TestPortfolioContextCancellation(t *testing.T) {
	p := internalPortfolio(PortfolioConfigs(Config{}, 3), nil)
	pigeonholeEngine(p, 9, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.SetContext(ctx)
	if got := p.Solve(); got != Unknown {
		t.Fatalf("cancelled context: got %v, want UNKNOWN", got)
	}
	p.SetContext(context.Background())
	if got := p.Solve(); got != Unsat {
		t.Fatalf("after detaching: got %v, want UNSAT", got)
	}
}

func TestPortfolioDeadlineExpiry(t *testing.T) {
	p := internalPortfolio(PortfolioConfigs(Config{}, 2), nil)
	pigeonholeEngine(p, 10, 9)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(10*time.Millisecond))
	defer cancel()
	p.SetContext(ctx)
	if got := p.Solve(); got != Unknown {
		t.Fatalf("all engines past deadline: got %v, want UNKNOWN", got)
	}
}

// TestLedgerAccounting: wins sum to the number of decided races, every
// engine is charged for every race, and conflict totals are consistent
// with the engines' own counters.
func TestLedgerAccounting(t *testing.T) {
	configs := PortfolioConfigs(Config{Seed: 5}, 3)
	ledger := NewLedgerLabels(configLabels(configs))
	p := internalPortfolio(configs, ledger)
	pigeonholeEngine(p, 6, 5)
	const calls = 4
	for i := 0; i < calls; i++ {
		if got := p.Solve(); got != Unsat {
			t.Fatalf("call %d: got %v, want UNSAT", i, got)
		}
	}
	stats := ledger.Snapshot()
	if len(stats) != 3 {
		t.Fatalf("ledger has %d entries, want 3", len(stats))
	}
	var wins, unsatWins, satWins, conflicts int64
	for i, cs := range stats {
		if cs.Config != configs[i].String() {
			t.Errorf("entry %d labeled %q, want %q", i, cs.Config, configs[i].String())
		}
		if cs.Races != calls {
			t.Errorf("engine %d charged %d races, want %d", i, cs.Races, calls)
		}
		wins += cs.Wins
		unsatWins += cs.UnsatWins
		satWins += cs.SatWins
		conflicts += cs.Conflicts
	}
	if wins != calls || unsatWins != calls || satWins != 0 {
		t.Errorf("wins %d (sat %d, unsat %d), want %d UNSAT wins", wins, satWins, unsatWins, calls)
	}
	if got := p.Stats().Conflicts; got != conflicts {
		t.Errorf("ledger conflicts %d != portfolio aggregate %d", conflicts, got)
	}
}

// TestLedgerSharedAcrossPortfolios mirrors the FALL grid's usage: many
// short-lived portfolios over one ledger, possibly concurrently.
func TestLedgerSharedAcrossPortfolios(t *testing.T) {
	configs := PortfolioConfigs(Config{}, 2)
	ledger := NewLedgerLabels(configLabels(configs))
	done := make(chan struct{})
	const workers = 4
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			p := internalPortfolio(configs, ledger)
			pigeonholeEngine(p, 5, 5)
			if got := p.Solve(); got != Sat {
				t.Errorf("got %v, want SAT", got)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	var wins int64
	for _, cs := range ledger.Snapshot() {
		wins += cs.Wins
	}
	if wins != workers {
		t.Errorf("total wins %d, want %d", wins, workers)
	}
}

// TestPortfolioFallthrough: a member that gives up — here an internal
// engine whose one-conflict budget runs out — returns Unknown and
// loses the race, and the portfolio still decides through the other
// member.
func TestPortfolioFallthrough(t *testing.T) {
	ledger := NewLedgerLabels([]string{"seed=0", "budget=1"})
	p := NewEnginePortfolio([]Engine{New(), NewWith(Config{ConflictBudget: 1})}, ledger)
	pigeonholeEngine(p, 5, 4)
	if got := p.Solve(); got != Unsat {
		t.Fatalf("portfolio with an exhausted member: %v, want UNSAT", got)
	}
	snap := ledger.Snapshot()
	if snap[0].Wins != 1 || snap[1].Wins != 0 || snap[1].Races != 1 {
		t.Errorf("ledger: %+v", snap)
	}
}

func TestPortfolioConfigsDeterministic(t *testing.T) {
	a := PortfolioConfigs(Config{Seed: 2}, 6)
	b := PortfolioConfigs(Config{Seed: 2}, 6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("config %d differs between derivations", i)
		}
	}
	if a[0] != (Config{Seed: 2}).withDefaults() {
		t.Errorf("first config must be the base itself, got %+v", a[0])
	}
	seen := map[string]bool{}
	for _, c := range a {
		key := c.String()
		if seen[key] {
			t.Errorf("duplicate portfolio config %q", key)
		}
		seen[key] = true
	}
}
