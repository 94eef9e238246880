// Package satattack implements the oracle-guided SAT attack of
// Subramanyan, Ray & Malik (HOST 2015), the baseline the paper compares
// against ([22, 23]). The attack maintains a miter of two copies of the
// locked circuit sharing primary inputs but with independent keys; each
// satisfying assignment yields a distinguishing input, whose oracle
// response prunes the key space until no distinguishing input remains.
//
// On stripped-functionality locking (TTLock, SFLL-HD, SARLock, Anti-SAT)
// each distinguishing input eliminates only a sliver of the key space, so
// the attack needs exponentially many iterations — this is precisely the
// SAT-resilience the FALL attack circumvents.
//
// The key-extraction solver takes the observed input/output pairs only
// once the miter converges, since it is solved only then. The miter's
// two copies are encoded in full, unlike key confirmation's shared
// copies: sharing their key-independent logic changes the solver's
// search, and with it which capped runs converge.
package satattack

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// Options tunes a SAT attack run.
type Options struct {
	// MaxIterations bounds distinguishing inputs queried (<= 0:
	// unlimited). Wall-clock budgets come from the context.
	MaxIterations int
	// Solver builds the SAT engines (the miter solver Q and the
	// key-extraction solver P); nil means default single engines.
	Solver attack.SolverFactory
}

// Result reports a SAT attack run.
type Result struct {
	// Key is the recovered key (key input name -> value); nil unless
	// Solved.
	Key map[string]bool
	// Solved is true when the attack converged (no distinguishing input
	// remains) and extracted a key.
	Solved bool
	// TimedOut is true when the context or iteration budget expired
	// first.
	TimedOut bool
	// Iterations counts distinguishing inputs queried.
	Iterations int
	// OracleQueries counts oracle calls made by this run.
	OracleQueries int
	// Elapsed is the total attack time.
	Elapsed time.Duration
}

// Run executes the SAT attack on the locked circuit using the oracle.
// Cancelling ctx stops the attack promptly with a TimedOut result.
func Run(ctx context.Context, locked *circuit.Circuit, orc oracle.Oracle, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &Result{}
	pis := locked.PrimaryInputs()
	keys := locked.KeyInputs()
	if len(keys) == 0 {
		return nil, fmt.Errorf("satattack: circuit has no key inputs")
	}
	outIdx, err := attack.OutputIndex(locked, orc)
	if err != nil {
		return nil, err
	}

	// One trace span per query family: the distinguishing-input miter
	// (Q) and the key-extraction solver (P).
	root := obs.SpanFrom(ctx)
	qSpan := root.Child("sat.miter")
	pSpan := root.Child("sat.extract")
	defer func() {
		qSpan.Set("iterations", res.Iterations)
		qSpan.End()
		pSpan.End()
	}()

	// Miter solver Q: the two-copy miter, which the per-iteration I/O
	// constraints then extend.
	q := attack.NewEngine(obs.With(ctx, qSpan), opts.Solver)
	qe := cnf.NewEncoder(q)
	lits1 := qe.EncodeCircuitWith(locked, nil)
	shared := make(map[int]sat.Lit, len(pis))
	for _, pi := range pis {
		shared[pi] = lits1[pi]
	}
	lits2 := qe.EncodeCircuitWith(locked, shared)
	qe.NotEqual(cnf.EncodedOutputs(locked, lits1), cnf.EncodedOutputs(locked, lits2))
	k1 := attack.KeyGiven(keys, cnf.InputLits(keys, lits1))
	k2 := attack.KeyGiven(keys, cnf.InputLits(keys, lits2))
	qPIs := cnf.InputLits(pis, lits1)
	fanout := locked.KeyFanout()

	// The observations, which the key-extraction solver P takes only
	// once Q converges: P is solved once, and most capped runs never
	// converge.
	var seen []observation
	for {
		if opts.MaxIterations > 0 && res.Iterations >= opts.MaxIterations {
			res.TimedOut = true
			break
		}
		switch q.Solve() {
		case sat.Unknown:
			res.TimedOut = true
			res.Elapsed = time.Since(start)
			return res, nil
		case sat.Unsat:
			// Converged: any key consistent with the observations is
			// correct.
			p := attack.NewEngine(obs.With(ctx, pSpan), opts.Solver)
			return extractKey(locked, fanout, outIdx, p, seen, res, start)
		}
		res.Iterations++
		xd := attack.ModelInput(locked, q, qPIs)
		yd := orc.Query(xd)
		res.OracleQueries++
		// Constrain both key copies in Q to reproduce the oracle
		// response on xd.
		attack.AddIOConstraint(qe, locked, fanout, xd, yd, outIdx, k1)
		attack.AddIOConstraint(qe, locked, fanout, xd, yd, outIdx, k2)
		seen = append(seen, observation{xd, yd})
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// observation is one distinguishing input and the oracle's response.
type observation struct {
	xd map[string]bool
	yd []bool
}

// extractKey constrains one key copy on engine p to reproduce every
// observation, in the order they were made, and reads a key off its
// model.
func extractKey(locked *circuit.Circuit, fanout []bool, outIdx []int, p sat.Engine, seen []observation, res *Result, start time.Time) (*Result, error) {
	keys := locked.KeyInputs()
	pe := cnf.NewEncoder(p)
	kp := make([]sat.Lit, len(keys))
	for i := range keys {
		kp[i] = pe.NewLit()
	}
	givenP := attack.KeyGiven(keys, kp)
	for _, o := range seen {
		attack.AddIOConstraint(pe, locked, fanout, o.xd, o.yd, outIdx, givenP)
	}
	switch p.Solve() {
	case sat.Unknown:
		res.TimedOut = true
		res.Elapsed = time.Since(start)
		return res, nil
	case sat.Unsat:
		return nil, fmt.Errorf("satattack: key constraints unsatisfiable (oracle/netlist mismatch)")
	}
	res.Key = make(map[string]bool, len(keys))
	for i, k := range keys {
		res.Key[locked.Nodes[k].Name] = p.LitTrue(kp[i])
	}
	res.Solved = true
	res.Elapsed = time.Since(start)
	return res, nil
}
