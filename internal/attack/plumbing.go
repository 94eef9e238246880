package attack

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// ForEachIndexed runs fn(0), ..., fn(n-1) on a pool of at most workers
// goroutines; workers <= 1 degenerates to a plain serial loop. fn writes
// its result into caller-owned slices at its index, so output order
// never depends on scheduling. Returning false from fn stops further
// indices from being dispatched (in-flight calls complete) — the
// deterministic analogue of breaking a serial loop: indices are
// dispatched in increasing order, so every skipped index is larger than
// every dispatched one.
func ForEachIndexed(workers, n int, fn func(i int) bool) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	var stop atomic.Bool
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if !fn(i) {
					stop.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !stop.Load(); i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
}

// This file holds the SAT plumbing shared by every oracle-guided attack
// (SAT attack, Double DIP, key confirmation) and by the FALL analyses:
// solver-engine construction (via SolverFactory),
// I/O constraint replay, and the locked-circuit/oracle output alignment.

// SolverFactory builds the SAT engine an attack uses for one solver
// instance (one miter, one analysis cell, one extraction solver), bound
// to the given context. Attacks that fan out internally call the
// factory once per worker-owned solver, so factories must be safe for
// concurrent use. A nil factory everywhere means "one default-configured
// engine" (NewSolver).
type SolverFactory func(ctx context.Context) sat.Engine

// NewSolver returns a fresh default-configured SAT solver bound to ctx:
// the solver returns Unknown once ctx is cancelled or its deadline
// passes. It is the engine a nil SolverFactory denotes.
func NewSolver(ctx context.Context) *sat.Solver {
	s := sat.New()
	if ctx != nil {
		s.SetContext(ctx)
	}
	return s
}

// NewEngine resolves a possibly-nil factory into an engine bound to
// ctx. Every solver construction site in the attacks goes through this,
// so swapping Target.Solver swaps the engine for the entire attack.
func NewEngine(ctx context.Context, f SolverFactory) sat.Engine {
	if f == nil {
		return NewSolver(ctx)
	}
	return f(ctx)
}

// KeyGiven maps key-input node ids to their encoded literals, in the form
// EncodeCircuitWith expects for tying a circuit copy to existing key
// variables.
func KeyGiven(keys []int, lits []sat.Lit) map[int]sat.Lit {
	m := make(map[int]sat.Lit, len(keys))
	for i, k := range keys {
		m[k] = lits[i]
	}
	return m
}

// AddIOConstraint encodes a fresh copy of the locked circuit with primary
// inputs fixed to xd, key inputs tied to the given key literals, and
// outputs fixed to the oracle response yd (aligned through outIdx).
// fanout is the circuit's KeyFanout. Every gate outside it is a constant
// under xd, so one simulation gives its value and cnf.EncodeFixed fixes
// its variables with unit clauses; a key-independent output that
// disagrees with yd adds the empty clause, as fixing it would.
func AddIOConstraint(e *cnf.Encoder, locked *circuit.Circuit, fanout []bool, xd map[string]bool, yd []bool, outIdx []int, keyLits map[int]sat.Lit) {
	pis := locked.PrimaryInputs()
	given := make(map[int]sat.Lit, len(pis)+len(keyLits))
	for k, v := range keyLits {
		given[k] = v
	}
	pattern := make(map[int]bool, len(pis))
	for _, pi := range pis {
		v := xd[locked.Nodes[pi].Name]
		pattern[pi] = v
		given[pi] = e.ConstLit(v)
	}
	vals := locked.Eval(pattern)
	lits := e.EncodeFixed(locked, fanout, vals, given)
	for i, o := range locked.Outputs {
		want := yd[outIdx[i]]
		switch {
		case fanout[o]:
			e.Fix(lits[o], want)
		case vals[o] != want:
			e.S.AddClause()
		}
	}
}

// OutputIndex maps locked-circuit output positions to oracle output
// positions by name.
func OutputIndex(locked *circuit.Circuit, orc oracle.Oracle) ([]int, error) {
	names := orc.OutputNames()
	byName := make(map[string]int, len(names))
	for i, n := range names {
		byName[n] = i
	}
	idx := make([]int, len(locked.Outputs))
	for i, o := range locked.Outputs {
		n := locked.Nodes[o].Name
		j, ok := byName[n]
		if !ok {
			// Outputs may have been renamed by optimization shims
			// (e.g. "_out" suffix); fall back to positional mapping.
			if i < len(names) {
				j = i
			} else {
				return nil, fmt.Errorf("attack: output %q not known to oracle", n)
			}
		}
		idx[i] = j
	}
	return idx, nil
}

// LitWithValue returns l when v is true and its complement otherwise.
func LitWithValue(l sat.Lit, v bool) sat.Lit {
	if v {
		return l
	}
	return l.Neg()
}

// ModelInput extracts the primary-input assignment of the engine's last
// model as a named pattern, ready for an oracle query.
func ModelInput(locked *circuit.Circuit, s sat.Engine, piLits []sat.Lit) map[string]bool {
	pis := locked.PrimaryInputs()
	xd := make(map[string]bool, len(pis))
	for i, pi := range pis {
		xd[locked.Nodes[pi].Name] = s.LitTrue(piLits[i])
	}
	return xd
}
