package sat

import "context"

// Engine is the solver-backend interface every SAT consumer in this
// repository programs against: the incremental subset of *Solver that
// the CNF encoder and the attacks use. Implementations: *Solver (the
// CDCL engine), procengine.ProcessEngine (an external DIMACS solver
// behind a pipe) and *MemoEngine (a verdict cache over another engine).
// Engine specs (see EngineSpec) name the two backends, internal and
// process, in flags and campaign plans.
//
// Engines are not safe for concurrent use; attacks that parallelize
// create one engine per worker through an attack.SolverFactory.
type Engine interface {
	// NewVar introduces a fresh variable and returns its index.
	NewVar() int
	// NumVars returns the number of variables created so far.
	NumVars() int
	// AddClause adds a clause; it returns false if the solver is (or
	// becomes) unsatisfiable at the top level.
	AddClause(lits ...Lit) bool
	// Solve determines satisfiability of the current clause set.
	Solve() Status
	// SolveAssuming solves under assumption literals that hold for this
	// call only; clauses learned persist, making repeated calls
	// incremental.
	SolveAssuming(assumptions []Lit) Status
	// Value returns variable v's value in the last satisfying
	// assignment.
	Value(v int) bool
	// LitTrue reports whether literal l is true in the last model.
	LitTrue(l Lit) bool
	// SetContext attaches a cancellation/deadline context; once it
	// expires, Solve calls return Unknown.
	SetContext(ctx context.Context)
	// Stats returns the cumulative counters (see the Stats type for the
	// accumulate-across-calls semantics).
	Stats() Stats
}

var _ Engine = (*Solver)(nil)
