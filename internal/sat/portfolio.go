package sat

import (
	"context"
	"sync"
)

// Portfolio is an Engine that replicates the clause database across N
// differently-configured Solvers and races them on every Solve call:
// each engine searches in its own goroutine under its own cancellable
// context, the first non-Unknown verdict wins, and the losers are
// cancelled. Because every engine decides the same formula, all
// non-Unknown verdicts agree — racing changes the runtime distribution
// (it cuts the heavy tail of heuristic-sensitive UNSAT lemma proofs and
// miter queries), never a decided verdict. Unknown is the one
// asymmetry: with a per-engine conflict budget the portfolio decides
// any query some member's heuristics crack within budget, so it can
// return strictly more verdicts than a single budgeted engine — never
// a conflicting one.
//
// Engines keep their learnt clauses between calls, so each portfolio
// member remains incrementally useful even when it loses races. Like
// *Solver, a Portfolio is not safe for concurrent use: the concurrency
// lives inside each call, not across calls.
//
// Members need not be internal CDCL solvers: any Engine races (e.g.
// an external DIMACS-pipe solver). Heterogeneous members preserve the
// agreement property — every backend decides the same formula — so
// racing still never changes a decided verdict; members that give up
// (an exhausted conflict budget, a killed process, malformed output)
// return Unknown and simply lose the race.
type Portfolio struct {
	engines []Engine
	ledger  *Ledger
	ctx     context.Context
	winner  int // engine backing Value/LitTrue (last Sat winner)
}

// NewEnginePortfolio builds a portfolio over pre-constructed engines of
// any backend mix. Every engine must be fresh (the portfolio replays
// one clause stream into all of them). A non-nil ledger accumulates
// per-engine statistics, engine i into ledger slot i; nil means no
// accounting.
func NewEnginePortfolio(engines []Engine, ledger *Ledger) *Portfolio {
	if len(engines) == 0 {
		panic("sat: NewEnginePortfolio with no engines")
	}
	return &Portfolio{engines: engines, ledger: ledger}
}

// SetContext attaches the base context every race runs under.
func (p *Portfolio) SetContext(ctx context.Context) { p.ctx = ctx }

// NewVar introduces a fresh variable in every engine and returns its
// (shared) index.
func (p *Portfolio) NewVar() int {
	v := p.engines[0].NewVar()
	for _, e := range p.engines[1:] {
		e.NewVar()
	}
	return v
}

// NumVars returns the number of variables created so far.
func (p *Portfolio) NumVars() int { return p.engines[0].NumVars() }

// AddClause adds the clause to every engine. Top-level state is
// config-independent (no decisions are involved), so the engines' ok
// flags always agree; the shared verdict is returned.
func (p *Portfolio) AddClause(lits ...Lit) bool {
	ok := true
	for _, e := range p.engines {
		ok = e.AddClause(lits...) && ok
	}
	return ok
}

// Solve races the engines on the current clause set.
func (p *Portfolio) Solve() Status { return p.SolveAssuming(nil) }

// SolveAssuming races every engine on the query and returns the first
// non-Unknown verdict, cancelling the losers. It returns Unknown only
// when every engine returned Unknown (base context cancelled or all
// conflict budgets exhausted).
func (p *Portfolio) SolveAssuming(assumptions []Lit) Status {
	base := p.ctx
	if base == nil {
		base = context.Background()
	}
	if len(p.engines) == 1 {
		e := p.engines[0]
		e.SetContext(p.ctx)
		before := e.Stats()
		st := e.SolveAssuming(assumptions)
		if st == Sat {
			p.winner = 0
		}
		p.record(st, 0, []Stats{e.Stats().Sub(before)})
		return st
	}
	if base.Err() != nil {
		return Unknown
	}

	n := len(p.engines)
	before := make([]Stats, n)
	cancels := make([]context.CancelFunc, n)
	type verdict struct {
		idx int
		st  Status
	}
	results := make(chan verdict, n)
	var wg sync.WaitGroup
	for i, e := range p.engines {
		before[i] = e.Stats()
		cctx, cancel := context.WithCancel(base)
		cancels[i] = cancel
		e.SetContext(cctx)
		wg.Add(1)
		go func(i int, e Engine) {
			defer wg.Done()
			results <- verdict{i, e.SolveAssuming(assumptions)}
		}(i, e)
	}
	winner, st := -1, Unknown
	for range p.engines {
		v := <-results
		if v.st != Unknown && winner < 0 {
			winner, st = v.idx, v.st
			// First verdict wins: cancel the remaining engines. Soundness
			// makes every non-Unknown verdict identical, so "first"
			// affects only which engine's model backs Value.
			for j, cancel := range cancels {
				if j != v.idx {
					cancel()
				}
			}
		}
	}
	wg.Wait()
	for i, cancel := range cancels {
		cancel()
		// Detach the per-race context so a later direct Solve (single-
		// engine path) does not observe a long-cancelled race.
		p.engines[i].SetContext(p.ctx)
	}
	if st == Sat {
		p.winner = winner
	}
	deltas := make([]Stats, n)
	for i, e := range p.engines {
		deltas[i] = e.Stats().Sub(before[i])
	}
	p.record(st, winner, deltas)
	return st
}

func (p *Portfolio) record(st Status, winner int, deltas []Stats) {
	if p.ledger != nil {
		p.ledger.record(st, winner, deltas)
	}
}

// Value returns variable v's value in the winning engine's model.
func (p *Portfolio) Value(v int) bool { return p.engines[p.winner].Value(v) }

// LitTrue reports whether literal l is true in the winning engine's
// model.
func (p *Portfolio) LitTrue(l Lit) bool { return p.engines[p.winner].LitTrue(l) }

// Stats returns the counters summed over all racing engines (cancelled
// losers included — their work was spent either way). Per-config
// breakdowns live in the Ledger.
func (p *Portfolio) Stats() Stats {
	var sum Stats
	for _, e := range p.engines {
		sum = sum.Add(e.Stats())
	}
	return sum
}

// ConfigStats is one configuration's accumulated racing record.
type ConfigStats struct {
	// Config is the canonical spec (Config.String) of the engine.
	Config string `json:"config"`
	// Races counts SolveAssuming races the engine participated in.
	Races int64 `json:"races"`
	// Wins counts races this engine decided first (SAT or UNSAT).
	Wins int64 `json:"wins"`
	// SatWins / UnsatWins split Wins by verdict.
	SatWins   int64 `json:"sat_wins"`
	UnsatWins int64 `json:"unsat_wins"`
	// Conflicts accumulates the conflicts this engine spent across all
	// races, won or lost.
	Conflicts int64 `json:"conflicts"`
}

// Ledger accumulates per-config win statistics across every race of one
// or many portfolios built over the same config list. It is safe for
// concurrent use (portfolios in different worker goroutines may share
// one).
type Ledger struct {
	mu    sync.Mutex
	stats []ConfigStats
}

// NewLedgerLabels returns a ledger whose slots carry the given engine
// labels (EngineLabels of the raced spec list).
func NewLedgerLabels(labels []string) *Ledger {
	l := &Ledger{stats: make([]ConfigStats, len(labels))}
	for i, lab := range labels {
		l.stats[i].Config = lab
	}
	return l
}

// record accounts one race: deltas[i] is engine i's spent work and
// winner the deciding engine (-1 when the race returned Unknown).
func (l *Ledger) record(st Status, winner int, deltas []Stats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, d := range deltas {
		if i >= len(l.stats) {
			break
		}
		l.stats[i].Races++
		l.stats[i].Conflicts += d.Conflicts
	}
	if st != Unknown && winner >= 0 && winner < len(l.stats) {
		l.stats[winner].Wins++
		switch st {
		case Sat:
			l.stats[winner].SatWins++
		case Unsat:
			l.stats[winner].UnsatWins++
		}
	}
}

// Snapshot returns a copy of the accumulated per-config statistics.
func (l *Ledger) Snapshot() []ConfigStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ConfigStats, len(l.stats))
	copy(out, l.stats)
	return out
}

// PortfolioConfigs derives n racing configurations from a base config:
// the base itself first, then variants that reseed the tie-breaking and
// cycle through the heuristic axes that matter most on this repo's
// query mix (restart schedule, decision phase, decay agility, random
// decisions). Deterministic: equal inputs yield equal config lists.
func PortfolioConfigs(base Config, n int) []Config {
	base = base.withDefaults()
	out := make([]Config, n)
	for i := range out {
		c := base
		c.Seed = base.Seed + int64(i)*0x9E3779B9 // golden-ratio stride
		switch i % 4 {
		case 0:
			// The base configuration itself (exact for i == 0).
		case 1:
			// Geometric restarts dig deeper before restarting — strong
			// on UNSAT lemma proofs that need long resolution chains.
			c.Restart = RestartGeometric
		case 2:
			// Agile decay with negative phases — strong on SAT queries
			// whose models are sparse (miter difference witnesses).
			c.VarDecay = 0.90
			c.Phase = PhaseFalse
		case 3:
			// Randomized diversification: random decisions and phases
			// decorrelate this engine from the deterministic members.
			c.RandomFreq = 0.02
			c.Phase = PhaseRandom
		}
		out[i] = c
	}
	return out
}
