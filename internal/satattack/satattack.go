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
	k1 := cnf.InputLits(keys, lits1)
	k2 := cnf.InputLits(keys, lits2)

	// Key-extraction solver P accumulates I/O constraints on one key copy.
	p := attack.NewEngine(obs.With(ctx, pSpan), opts.Solver)
	pe := cnf.NewEncoder(p)
	kp := make([]sat.Lit, len(keys))
	givenP := make(map[int]sat.Lit, len(keys))
	for i, k := range keys {
		kp[i] = pe.NewLit()
		givenP[k] = kp[i]
	}

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
			res.Elapsed = time.Since(start)
			return extractKey(locked, p, kp, keys, res, start)
		}
		res.Iterations++
		// Distinguishing input from the model.
		xd := make(map[string]bool, len(pis))
		for _, pi := range pis {
			xd[locked.Nodes[pi].Name] = q.LitTrue(lits1[pi])
		}
		yd := orc.Query(xd)
		res.OracleQueries++
		// Constrain both key copies in Q and the key in P to reproduce
		// the oracle response on xd.
		attack.AddIOConstraint(qe, locked, xd, yd, outIdx, attack.KeyGiven(keys, k1))
		attack.AddIOConstraint(qe, locked, xd, yd, outIdx, attack.KeyGiven(keys, k2))
		attack.AddIOConstraint(pe, locked, xd, yd, outIdx, givenP)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func extractKey(locked *circuit.Circuit, p sat.Engine, kp []sat.Lit, keys []int, res *Result, start time.Time) (*Result, error) {
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
