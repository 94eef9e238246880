// Package doubledip implements the Double DIP attack of Shen & Zhou [18]
// (cited in the paper's related work as the attack that broke SARLock).
// Each iteration demands a distinguishing input that separates at least
// two distinct candidate keys from each other — a "2-DIP". Point-function
// schemes like SARLock can serve at most one wrong key per input pattern,
// so 2-DIPs never waste a query on the SARLock layer; against compound
// locking (traditional + SARLock, see lock.Compound) the attack strips
// the traditional layer in a handful of queries and returns a key whose
// residual error is bounded by the SARLock layer's single protected
// pattern.
//
// After the 2-DIP phase converges, an optional exact phase runs the
// standard single-DIP loop to full convergence (can be exponential on
// point functions, hence the iteration cap).
package doubledip

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// Options tunes a Double DIP run. Wall-clock budgets are expressed by
// cancelling (or setting a deadline on) the run context.
type Options struct {
	// MaxIterations bounds the total distinguishing-input queries across
	// both phases (<= 0: unlimited). When the budget runs out the attack
	// stops with TimedOut and extracts the best key consistent with the
	// observations so far.
	MaxIterations int
	// MaxExactIterations bounds the exact single-DIP convergence phase
	// after the 2-DIP phase (0 skips it; point functions make it
	// exponential).
	MaxExactIterations int
	// ErrorExitSamples, when positive, enables the AppSAT-style [17]
	// approximate exit: every few iterations the current candidate key
	// is checked against the oracle on this many random patterns;
	// disagreeing patterns are added as constraints (reinforcement) and
	// a fully agreeing batch ends the attack with an approximate key.
	// Needed when functionally equivalent key vectors make the
	// vector-disjointness of the 2-DIP formulation too weak to converge.
	ErrorExitSamples int
	// Seed drives the random sampling of the error-exit check.
	Seed int64
	// Solver builds the SAT engines (2-DIP solver D, extraction solver
	// P, exact-phase solver Q); nil means default single engines.
	Solver attack.SolverFactory
}

// Result reports a Double DIP run.
type Result struct {
	// Key is the extracted key (approximate after the 2-DIP phase,
	// exact when ExactConverged).
	Key map[string]bool
	// TwoDIPIterations counts queries made in the 2-DIP phase.
	TwoDIPIterations int
	// ExactIterations counts queries in the exact (single-DIP) phase.
	ExactIterations int
	// ExactConverged is true when the single-DIP phase proved no
	// distinguishing input remains.
	ExactConverged bool
	// ApproximateExit is true when the AppSAT-style error check ended
	// the attack (key correct up to a low residual error).
	ApproximateExit bool
	// TimedOut reports budget expiry during either phase.
	TimedOut bool
	// OracleQueries counts oracle calls.
	OracleQueries int
	// Elapsed is the total runtime.
	Elapsed time.Duration
}

// Run executes Double DIP with the given options. Cancelling ctx stops
// the attack promptly with a TimedOut result.
func Run(ctx context.Context, locked *circuit.Circuit, orc oracle.Oracle, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxExactIterations := opts.MaxExactIterations
	start := time.Now()
	res := &Result{}
	pis := locked.PrimaryInputs()
	keys := locked.KeyInputs()
	if len(keys) == 0 {
		return nil, fmt.Errorf("doubledip: circuit has no key inputs")
	}
	outIdx, err := attack.OutputIndex(locked, orc)
	if err != nil {
		return nil, err
	}
	fanout := locked.KeyFanout()

	// 2-DIP solver: four key copies sharing X forming two DISJOINT
	// distinguishing pairs at the same input — (K1,K2) and (K3,K4) with
	// Y1 != Y2, Y3 != Y4 and {K1,K2} ∩ {K3,K4} = ∅. A point-function
	// layer like SARLock can make at most one key misbehave per input,
	// so it can never serve two disjoint pairs: the query never "wastes"
	// an iteration on the SARLock layer (Shen & Zhou's key insight).
	// The per-iteration I/O constraints extend the same engine.
	d := attack.NewEngine(ctx, opts.Solver)
	de := cnf.NewEncoder(d)
	d1 := de.EncodeCircuitWith(locked, nil)
	shared := make(map[int]sat.Lit, len(pis))
	for _, pi := range pis {
		shared[pi] = d1[pi]
	}
	d2 := de.EncodeCircuitWith(locked, shared)
	d3 := de.EncodeCircuitWith(locked, shared)
	d4 := de.EncodeCircuitWith(locked, shared)
	de.NotEqual(cnf.EncodedOutputs(locked, d1), cnf.EncodedOutputs(locked, d2))
	de.NotEqual(cnf.EncodedOutputs(locked, d3), cnf.EncodedOutputs(locked, d4))
	k1 := cnf.InputLits(keys, d1)
	k2 := cnf.InputLits(keys, d2)
	k3 := cnf.InputLits(keys, d3)
	k4 := cnf.InputLits(keys, d4)
	for _, pair := range [][2][]sat.Lit{{k1, k3}, {k1, k4}, {k2, k3}, {k2, k4}} {
		de.NotEqual(pair[0], pair[1])
	}
	dGivens := []map[int]sat.Lit{
		attack.KeyGiven(keys, k1), attack.KeyGiven(keys, k2),
		attack.KeyGiven(keys, k3), attack.KeyGiven(keys, k4),
	}

	// Key-extraction solver P.
	p := attack.NewEngine(ctx, opts.Solver)
	pe := cnf.NewEncoder(p)
	kp := make([]sat.Lit, len(keys))
	givenP := make(map[int]sat.Lit, len(keys))
	for i, k := range keys {
		kp[i] = pe.NewLit()
		givenP[k] = kp[i]
	}

	var queried []queryRecord
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5bd1e995))
	addEverywhere := func(xd map[string]bool, yd []bool) {
		queried = append(queried, queryRecord{xd, yd})
		for _, g := range dGivens {
			attack.AddIOConstraint(de, locked, fanout, xd, yd, outIdx, g)
		}
		attack.AddIOConstraint(pe, locked, fanout, xd, yd, outIdx, givenP)
	}
	budgetLeft := func() bool {
		return opts.MaxIterations <= 0 || res.TwoDIPIterations+res.ExactIterations < opts.MaxIterations
	}
	// Phase 1: 2-DIP loop with optional AppSAT-style error exit.
	for {
		if !budgetLeft() {
			res.TimedOut = true
			break
		}
		st := d.Solve()
		if st == sat.Unknown {
			res.TimedOut = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if st == sat.Unsat {
			break
		}
		res.TwoDIPIterations++
		xd := make(map[string]bool, len(pis))
		for _, pi := range pis {
			xd[locked.Nodes[pi].Name] = d.LitTrue(d1[pi])
		}
		yd := orc.Query(xd)
		res.OracleQueries++
		addEverywhere(xd, yd)

		if opts.ErrorExitSamples > 0 && res.TwoDIPIterations%4 == 0 {
			if p.Solve() != sat.Sat {
				continue
			}
			key := make(map[string]bool, len(keys))
			assign := make(map[int]bool, len(keys))
			for i, k := range keys {
				key[locked.Nodes[k].Name] = p.LitTrue(kp[i])
				assign[k] = p.LitTrue(kp[i])
			}
			agree := true
			for s := 0; s < opts.ErrorExitSamples; s++ {
				rx := make(map[string]bool, len(pis))
				for _, pi := range pis {
					v := rng.Intn(2) == 1
					rx[locked.Nodes[pi].Name] = v
					assign[pi] = v
				}
				ry := orc.Query(rx)
				res.OracleQueries++
				got := locked.EvalOutputs(assign)
				for i := range got {
					if got[i] != ry[outIdx[i]] {
						// Reinforce: the disagreeing pattern becomes a
						// constraint, exactly as AppSAT does.
						addEverywhere(rx, ry)
						agree = false
						break
					}
				}
				if !agree {
					break
				}
			}
			if agree {
				res.Key = key
				res.ApproximateExit = true
				res.Elapsed = time.Since(start)
				return res, nil
			}
		}
	}

	// Phase 2: exact single-DIP convergence (optional; skipped when the
	// shared iteration budget is already spent).
	if maxExactIterations != 0 && budgetLeft() {
		// A fresh two-copy miter, then the phase-1 observations replayed
		// into it.
		q := attack.NewEngine(ctx, opts.Solver)
		qe := cnf.NewEncoder(q)
		q1 := qe.EncodeCircuitWith(locked, nil)
		sharedQ := make(map[int]sat.Lit, len(pis))
		for _, pi := range pis {
			sharedQ[pi] = q1[pi]
		}
		q2 := qe.EncodeCircuitWith(locked, sharedQ)
		qe.NotEqual(cnf.EncodedOutputs(locked, q1), cnf.EncodedOutputs(locked, q2))
		qGivens := []map[int]sat.Lit{
			attack.KeyGiven(keys, cnf.InputLits(keys, q1)),
			attack.KeyGiven(keys, cnf.InputLits(keys, q2)),
		}
		// Replay phase-1 observations.
		for _, rec := range queried {
			for _, g := range qGivens {
				attack.AddIOConstraint(qe, locked, fanout, rec.xd, rec.yd, outIdx, g)
			}
		}
		for {
			if maxExactIterations > 0 && res.ExactIterations >= maxExactIterations {
				res.TimedOut = true
				break
			}
			if !budgetLeft() {
				res.TimedOut = true
				break
			}
			st := q.Solve()
			if st == sat.Unknown {
				res.TimedOut = true
				break
			}
			if st == sat.Unsat {
				res.ExactConverged = true
				break
			}
			res.ExactIterations++
			xd := make(map[string]bool, len(pis))
			for _, pi := range pis {
				xd[locked.Nodes[pi].Name] = q.LitTrue(q1[pi])
			}
			yd := orc.Query(xd)
			res.OracleQueries++
			for _, g := range qGivens {
				attack.AddIOConstraint(qe, locked, fanout, xd, yd, outIdx, g)
			}
			attack.AddIOConstraint(pe, locked, fanout, xd, yd, outIdx, givenP)
		}
	}

	// Extract a key consistent with everything observed.
	switch p.Solve() {
	case sat.Unknown:
		res.TimedOut = true
		res.Elapsed = time.Since(start)
		return res, nil
	case sat.Unsat:
		return nil, fmt.Errorf("doubledip: key constraints unsatisfiable (oracle/netlist mismatch)")
	}
	res.Key = make(map[string]bool, len(keys))
	for i, k := range keys {
		res.Key[locked.Nodes[k].Name] = p.LitTrue(kp[i])
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

type queryRecord struct {
	xd map[string]bool
	yd []bool
}
