// Package keyconfirm implements the key confirmation algorithm (paper §V,
// Algorithm 4): given a predicate φ over key values — typically the
// disjunction of the keys shortlisted by the FALL functional analyses —
// and I/O oracle access, it returns the key satisfying φ that is
// consistent with the oracle, or ⊥ if none is.
//
// Two independent incremental SAT solvers mirror the paper's P/Q design:
// P produces candidate keys consistent with φ and the observed I/O
// patterns; Q produces distinguishing inputs for the current candidate,
// with the candidate pinned via solver assumptions. The two UNSAT results
// are therefore distinguishable: P UNSAT means the guess φ was wrong
// (return ⊥), Q UNSAT means no distinguishing input remains (the
// candidate is confirmed). With φ = true the procedure devolves into the
// standard SAT attack, as the paper observes.
//
// Implementation refinement beyond Algorithm 4: before the final
// single-copy convergence check, an accelerated phase requires each
// distinguishing input to separate the candidate from two distinct other
// keys simultaneously (the Double-DIP strengthening [18]). On point-
// function locking this steers the solver to the protected-cube query
// that eliminates the whole wrong-key space at once. Soundness is
// unaffected: termination is still decided by the unmodified Algorithm 4
// query, and every returned key is consistent with φ and all oracle
// responses.
//
// The miters encode only what a key can change. A gate outside the key
// fanout (circuit.KeyFanout) is a function of the shared primary inputs
// alone, so it takes one value in every copy: Q's second copy and D's
// second and third copies reuse the first copy's literal for it
// (cnf.EncodeCopy), and their output comparisons cover only the outputs
// in the key fanout. On TTLock about a hundred nodes per copy depend on
// a key, out of hundreds to thousands. Each distinguishing input's
// constraint fixes the gates outside the key fanout with unit clauses
// (attack.AddIOConstraint). The SAT attack and Double DIP keep unshared
// miters on purpose: sharing changes their solver's search, and with it
// which capped runs converge.
package keyconfirm

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

// Result reports a key confirmation run.
type Result struct {
	// Key is the confirmed key, nil when Confirmed is false.
	Key map[string]bool
	// Confirmed is true if some candidate satisfying φ is consistent
	// with the oracle; false means ⊥ (the guess was wrong).
	Confirmed bool
	// TimedOut reports wall-clock expiry or cancellation of the run
	// context (result undetermined).
	TimedOut bool
	// IterCapped reports that Options.MaxIterations stopped the run
	// before a verdict. It is distinct from TimedOut: hitting an
	// iteration cap says nothing about wall-clock budgets, and harnesses
	// must not censor capped runs as timeouts.
	IterCapped bool
	// Iterations counts distinguishing-input queries.
	Iterations int
	// OracleQueries counts oracle calls.
	OracleQueries int
	// Elapsed is the total run time.
	Elapsed time.Duration
}

// Options tunes the confirmation run. Wall-clock budgets and external
// cancellation are expressed through the run context: cancel it (or set
// a deadline on it) and Confirm reports TimedOut.
type Options struct {
	// DisableDoubleDIP turns off the accelerated two-copy phase and runs
	// pure Algorithm 4 (ablation knob).
	DisableDoubleDIP bool
	// MaxIterations bounds distinguishing-input queries (<= 0: unlimited).
	MaxIterations int
	// Solver builds the SAT engines (the P/Q solvers of Algorithm 4 and
	// the accelerated solver D); nil means default single engines.
	Solver attack.SolverFactory
}

// Confirm runs key confirmation with φ = OR over the candidate key
// assignments. An empty candidate list means φ = true (degenerates to the
// SAT attack over the whole key space).
func Confirm(ctx context.Context, locked *circuit.Circuit, candidates []map[string]bool, orc oracle.Oracle, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &Result{}
	keys := locked.KeyInputs()
	if len(keys) == 0 {
		return nil, fmt.Errorf("keyconfirm: circuit has no key inputs")
	}
	outIdx, err := attack.OutputIndex(locked, orc)
	if err != nil {
		return nil, err
	}

	// One trace span per query family: every query a solver issues
	// parents under its family span, so tracestat can split the run
	// into candidate search (P), termination miters (Q) and the
	// double-DIP acceleration (D).
	root := obs.SpanFrom(ctx)
	pSpan := root.Child("kc.P")
	qSpan := root.Child("kc.Q")
	var dSpan *obs.Span
	defer func() {
		pSpan.Set("iterations", res.Iterations)
		pSpan.End()
		qSpan.End()
		dSpan.End()
	}()

	// The per-iteration I/O constraints extend each solver's initial
	// encoding incrementally.

	// Solver P: candidate keys satisfying φ and observed I/O patterns.
	p := attack.NewEngine(obs.With(ctx, pSpan), opts.Solver)
	pe := cnf.NewEncoder(p)
	kp := make([]sat.Lit, len(keys))
	givenP := make(map[int]sat.Lit, len(keys))
	for i, k := range keys {
		kp[i] = pe.NewLit()
		givenP[k] = kp[i]
	}
	if len(candidates) > 0 {
		encodePhi(pe, locked, keys, kp, candidates)
	}

	// Every miter copy after the first shares the first copy's literals
	// outside the key fanout, and compares only the outputs in it.
	fanout := locked.KeyFanout()

	// Solver Q: single-copy miter per Algorithm 4 (the sound terminator).
	q := attack.NewEngine(obs.With(ctx, qSpan), opts.Solver)
	qe := cnf.NewEncoder(q)
	q1lits := qe.EncodeCircuit(locked)
	q2lits := qe.EncodeCopy(locked, q1lits, fanout)
	qe.NotEqual(keyOutputs(locked, fanout, q1lits), keyOutputs(locked, fanout, q2lits))
	qK1 := cnf.InputLits(keys, q1lits)
	qK2given := attack.KeyGiven(keys, cnf.InputLits(keys, q2lits))

	// Solver D: accelerated double-DIP miter (two other-key copies).
	var d sat.Engine
	var de *cnf.Encoder
	var dK1 []sat.Lit
	var dPIs []sat.Lit
	var dK2given, dK3given map[int]sat.Lit
	if !opts.DisableDoubleDIP {
		dSpan = root.Child("kc.D")
		d = attack.NewEngine(obs.With(ctx, dSpan), opts.Solver)
		de = cnf.NewEncoder(d)
		d1 := de.EncodeCircuit(locked)
		d2 := de.EncodeCopy(locked, d1, fanout)
		d3 := de.EncodeCopy(locked, d1, fanout)
		out1 := keyOutputs(locked, fanout, d1)
		de.NotEqual(out1, keyOutputs(locked, fanout, d2))
		de.NotEqual(out1, keyOutputs(locked, fanout, d3))
		k2 := cnf.InputLits(keys, d2)
		k3 := cnf.InputLits(keys, d3)
		de.NotEqual(k2, k3) // the two other keys are distinct
		dK1 = cnf.InputLits(keys, d1)
		dPIs = cnf.InputLits(locked.PrimaryInputs(), d1)
		dK2given = attack.KeyGiven(keys, k2)
		dK3given = attack.KeyGiven(keys, k3)
	}

	qPIs := cnf.InputLits(locked.PrimaryInputs(), q1lits)
	doublePhase := !opts.DisableDoubleDIP

	for {
		if opts.MaxIterations > 0 && res.Iterations >= opts.MaxIterations {
			res.IterCapped = true
			break
		}
		// Line 6-9: candidate key from P.
		switch p.Solve() {
		case sat.Unknown:
			res.TimedOut = true
			res.Elapsed = time.Since(start)
			return res, nil
		case sat.Unsat:
			// ⊥: no key satisfies φ and the observations.
			res.Elapsed = time.Since(start)
			return res, nil
		}
		ki := make([]bool, len(keys))
		assumpsQ := make([]sat.Lit, len(keys))
		for i := range keys {
			ki[i] = p.LitTrue(kp[i])
			assumpsQ[i] = attack.LitWithValue(qK1[i], ki[i])
		}

		// Accelerated phase: distinguish Ki from two keys at once.
		if doublePhase {
			assumpsD := make([]sat.Lit, len(keys))
			for i := range keys {
				assumpsD[i] = attack.LitWithValue(dK1[i], ki[i])
			}
			switch d.SolveAssuming(assumpsD) {
			case sat.Unknown:
				res.TimedOut = true
				res.Elapsed = time.Since(start)
				return res, nil
			case sat.Unsat:
				// No double-DIP remains; fall through to the sound
				// single-copy phase for the rest of the run.
				doublePhase = false
			case sat.Sat:
				res.Iterations++
				xd := attack.ModelInput(locked, d, dPIs)
				yd := orc.Query(xd)
				res.OracleQueries++
				attack.AddIOConstraint(pe, locked, fanout, xd, yd, outIdx, givenP)
				attack.AddIOConstraint(qe, locked, fanout, xd, yd, outIdx, qK2given)
				attack.AddIOConstraint(de, locked, fanout, xd, yd, outIdx, dK2given)
				attack.AddIOConstraint(de, locked, fanout, xd, yd, outIdx, dK3given)
				continue
			}
		}

		// Line 10-12: Algorithm 4's distinguishing-input query.
		switch q.SolveAssuming(assumpsQ) {
		case sat.Unknown:
			res.TimedOut = true
			res.Elapsed = time.Since(start)
			return res, nil
		case sat.Unsat:
			// Confirmed: Ki |= φ and no distinguishing input exists.
			res.Key = make(map[string]bool, len(keys))
			for i, k := range keys {
				res.Key[locked.Nodes[k].Name] = ki[i]
			}
			res.Confirmed = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
		res.Iterations++
		xd := attack.ModelInput(locked, q, qPIs)
		yd := orc.Query(xd)
		res.OracleQueries++
		// Lines 15-16.
		attack.AddIOConstraint(pe, locked, fanout, xd, yd, outIdx, givenP)
		attack.AddIOConstraint(qe, locked, fanout, xd, yd, outIdx, qK2given)
		if d != nil {
			attack.AddIOConstraint(de, locked, fanout, xd, yd, outIdx, dK2given)
			attack.AddIOConstraint(de, locked, fanout, xd, yd, outIdx, dK3given)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// encodePhi adds φ = OR_j (K == candidate_j) to the encoder's sink via
// selector variables.
func encodePhi(pe *cnf.Encoder, locked *circuit.Circuit, keys []int, kp []sat.Lit, candidates []map[string]bool) {
	sels := make([]sat.Lit, len(candidates))
	for j, cand := range candidates {
		sel := pe.NewLit()
		sels[j] = sel
		for i, k := range keys {
			name := locked.Nodes[k].Name
			v, ok := cand[name]
			if !ok {
				continue // unconstrained bit in this candidate
			}
			pe.S.AddClause(sel.Neg(), attack.LitWithValue(kp[i], v))
		}
	}
	pe.S.AddClause(sels...)
}

// keyOutputs returns the literals of the circuit outputs in the key
// fanout. Every other output has one literal in all copies over shared
// primary inputs, so it can never tell two keys apart.
func keyOutputs(locked *circuit.Circuit, fanout []bool, lits []sat.Lit) []sat.Lit {
	var out []sat.Lit
	for _, o := range locked.Outputs {
		if fanout[o] {
			out = append(out, lits[o])
		}
	}
	return out
}
