// Package procengine implements sat.Engine on top of an external
// DIMACS solver binary — the paper's original toolchain shape, which ran
// its functional-analysis queries on a SAT-competition solver
// (Lingeling) over the DIMACS interchange format.
//
// The engine buffers the incremental clause stream in memory; each
// Solve/SolveAssuming call dumps the buffered CNF (assumptions as unit
// clauses) to a temp file, spawns the solver on it, and parses the
// competition-format answer (`s SATISFIABLE` / `v ...` lines) back into
// a verdict and model. External solvers keep no state between calls, so
// "incremental" solving re-dumps from the buffer — assumptions never
// leak into later calls, and (unlike the internal engine) learnt
// clauses do not persist. Context cancellation kills the solver
// process; any malformed or missing output — including a SAT answer
// whose model falsifies a dumped clause or assumption — makes the call
// return Unknown with the underlying error retained in Err, instead of
// a verdict the engine cannot back.
package procengine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/dimacs"
	"repro/internal/sat"
)

// ProcessEngine is a sat.Engine backed by an external DIMACS solver
// process. Like every engine, it is not safe for concurrent use.
type ProcessEngine struct {
	cmd  string   // binary name (resolved on PATH per call) or path
	args []string // extra arguments before the CNF file

	nVars   int
	clauses [][]int // DIMACS literals, buffered incrementally
	ok      bool    // false once an empty clause is added
	ctx     context.Context
	model   []bool // 1-based, from the last SAT answer
	stats   sat.Stats
	err     error // last spawn/parse failure (sticky until the next call)
}

var _ sat.Engine = (*ProcessEngine)(nil)

// New returns an engine spawning cmd (a binary name to resolve on PATH
// or an explicit path) with the given extra arguments before the CNF
// file argument. The binary is not checked here — a missing solver
// surfaces as Unknown verdicts with Err set (use
// attack.SolverSetup.Check to fail fast).
func New(cmd string, args ...string) *ProcessEngine {
	return &ProcessEngine{cmd: cmd, args: args, ok: true}
}

// Err returns the failure of the most recent Solve call that returned
// Unknown for an abnormal reason (unparseable output, a model that
// falsifies the dumped formula, spawn failure), or nil after a clean
// call. Context cancellation is not an error.
func (e *ProcessEngine) Err() error { return e.err }

// NewVar introduces a fresh variable and returns its index.
func (e *ProcessEngine) NewVar() int {
	e.nVars++
	return e.nVars - 1
}

// NumVars returns the number of variables created so far.
func (e *ProcessEngine) NumVars() int { return e.nVars }

// AddClause buffers a clause. It returns false only when the clause is
// empty (trivially unsatisfiable): without running the solver, an
// external engine cannot detect deeper top-level conflicts the way the
// propagating internal engine does.
func (e *ProcessEngine) AddClause(lits ...sat.Lit) bool {
	if len(lits) == 0 {
		e.ok = false
		return false
	}
	e.clauses = append(e.clauses, toDimacs(lits))
	return e.ok
}

// SetContext attaches a cancellation/deadline context: once it expires,
// the running solver process is killed and Solve returns Unknown.
func (e *ProcessEngine) SetContext(ctx context.Context) { e.ctx = ctx }

// Stats returns the engine's counters. Only SolveCalls is meaningful:
// external solvers do not report their conflict work in a form the
// snapshot accounting could use.
func (e *ProcessEngine) Stats() sat.Stats { return e.stats }

// Solve determines satisfiability of the buffered clause set.
func (e *ProcessEngine) Solve() sat.Status { return e.SolveAssuming(nil) }

// SolveAssuming solves under assumption literals, dumped as unit
// clauses for this call only. A SAT answer is adopted only after its
// model is checked against every dumped clause and assumption.
func (e *ProcessEngine) SolveAssuming(assumptions []sat.Lit) sat.Status {
	e.stats.SolveCalls++
	e.err = nil
	if !e.ok {
		return sat.Unsat
	}
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return sat.Unknown
	}
	units := toDimacs(assumptions)
	res, err := e.run(ctx, units)
	if err != nil {
		if ctx.Err() == nil {
			e.err = err
		}
		return sat.Unknown
	}
	if res.Status == sat.Sat {
		if err := checkModel(res.Model, e.clauses, units); err != nil {
			e.err = fmt.Errorf("procengine: %s: %w", e.cmd, err)
			return sat.Unknown
		}
		e.model = res.Model
	}
	return res.Status
}

// checkModel verifies a reported model against the dumped clauses and
// assumption units: an external solver's SAT answer is not taken on
// trust, because a wrong model would reach the attacks' cubes and
// distinguishing inputs.
func checkModel(model []bool, clauses [][]int, units []int) error {
	holds := func(lit int) bool {
		v := lit
		if v < 0 {
			v = -v
		}
		return v < len(model) && model[v] == (lit > 0)
	}
	for i, cl := range clauses {
		ok := false
		for _, lit := range cl {
			if holds(lit) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("model falsifies clause %d %v", i, cl)
		}
	}
	for _, u := range units {
		if !holds(u) {
			return fmt.Errorf("model falsifies assumption %d", u)
		}
	}
	return nil
}

func toDimacs(lits []sat.Lit) []int {
	cl := make([]int, len(lits))
	for i, l := range lits {
		v := l.Var() + 1
		if l.Sign() {
			v = -v
		}
		cl[i] = v
	}
	return cl
}

// run performs one external invocation: dump, spawn, parse.
func (e *ProcessEngine) run(ctx context.Context, units []int) (*dimacs.Result, error) {
	in, err := os.CreateTemp("", "procengine-*.cnf")
	if err != nil {
		return nil, err
	}
	inName := in.Name()
	defer os.Remove(inName)
	werr := dimacs.WriteWithUnits(in, &dimacs.Formula{NumVars: e.nVars, Clauses: e.clauses}, units)
	if cerr := in.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, werr
	}

	args := append(append([]string{}, e.args...), inName)
	resultFile := ""
	if fileOutput(e.cmd) {
		// The minisat family writes its verdict and model to a result
		// file argument instead of competition-format stdout.
		out, err := os.CreateTemp("", "procengine-*.out")
		if err != nil {
			return nil, err
		}
		resultFile = out.Name()
		out.Close()
		defer os.Remove(resultFile)
		args = append(args, resultFile)
	}
	cmd := exec.CommandContext(ctx, e.cmd, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run() // competition solvers exit 10 (SAT) / 20 (UNSAT); the output decides

	output := stdout.Bytes()
	if resultFile != "" {
		if output, err = os.ReadFile(resultFile); err != nil {
			return nil, err
		}
	}
	res, perr := dimacs.ParseResult(bytes.NewReader(output), e.nVars)
	if perr != nil {
		if runErr != nil {
			return nil, fmt.Errorf("procengine: %s: %w (%v, stderr: %.200s)", e.cmd, perr, runErr, stderr.String())
		}
		return nil, fmt.Errorf("procengine: %s: %w", e.cmd, perr)
	}
	return res, nil
}

// fileOutput reports whether the solver writes its answer to a result
// file argument (the minisat family) rather than competition stdout.
func fileOutput(cmd string) bool {
	base := filepath.Base(cmd)
	return strings.Contains(base, "minisat") || strings.Contains(base, "glucose")
}

// Value returns variable v's value in the last satisfying assignment.
func (e *ProcessEngine) Value(v int) bool {
	if v+1 >= len(e.model) {
		return false
	}
	return e.model[v+1]
}

// LitTrue reports whether literal l is true in the last model.
func (e *ProcessEngine) LitTrue(l sat.Lit) bool {
	val := e.Value(l.Var())
	if l.Sign() {
		return !val
	}
	return val
}
