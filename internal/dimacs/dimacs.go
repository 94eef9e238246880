// Package dimacs reads and writes CNF formulas in DIMACS format, the
// interchange format of the SAT competition solvers the paper's toolchain
// used (Lingeling). It lets attack instances built by internal/cnf be
// exported to external solvers and reference instances be replayed
// against the internal CDCL solver.
package dimacs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sat"
)

// Formula is a CNF formula in DIMACS terms: NumVars variables numbered
// 1..NumVars and a list of clauses over signed literals.
type Formula struct {
	NumVars int
	Clauses [][]int
}

// Parse reads a DIMACS CNF file. It accepts comment lines (c ...), the
// problem line (p cnf V C) and clauses terminated by 0, possibly spanning
// lines. The declared clause count is checked when present.
func Parse(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	f := &Formula{}
	declaredClauses := -1
	var cur []int
	lineNo := 0
	sawProblem := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			if sawProblem {
				return nil, fmt.Errorf("dimacs: line %d: duplicate problem line", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dimacs: line %d: malformed problem line %q", lineNo, line)
			}
			v, err1 := strconv.Atoi(fields[2])
			c, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || v < 0 || c < 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad problem counts %q", lineNo, line)
			}
			f.NumVars = v
			declaredClauses = c
			sawProblem = true
			continue
		}
		if !sawProblem {
			return nil, fmt.Errorf("dimacs: line %d: clause before problem line", lineNo)
		}
		for _, tok := range strings.Fields(line) {
			lit, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad literal %q", lineNo, tok)
			}
			if lit == 0 {
				f.Clauses = append(f.Clauses, cur)
				cur = nil
				continue
			}
			v := lit
			if v < 0 {
				v = -v
			}
			if v > f.NumVars {
				return nil, fmt.Errorf("dimacs: line %d: literal %d exceeds declared %d vars", lineNo, lit, f.NumVars)
			}
			cur = append(cur, lit)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		return nil, fmt.Errorf("dimacs: unterminated final clause")
	}
	if declaredClauses >= 0 && len(f.Clauses) != declaredClauses {
		return nil, fmt.Errorf("dimacs: declared %d clauses, found %d", declaredClauses, len(f.Clauses))
	}
	return f, nil
}

// Write emits the formula in DIMACS format.
func Write(w io.Writer, f *Formula) error {
	return WriteWithUnits(w, f, nil)
}

// WriteWithUnits emits the formula with extra unit clauses appended —
// the assumptions-as-units dump the DIMACS-pipe engine uses: external
// competition solvers speak no assumption interface, so each
// SolveAssuming call re-dumps the buffered formula with its assumptions
// as units. Units are declared in the problem line's clause count and
// emitted first, so a reader sees a plain well-formed CNF.
func WriteWithUnits(w io.Writer, f *Formula, units []int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)+len(units))
	for _, u := range units {
		fmt.Fprintf(bw, "%d 0\n", u)
	}
	for _, cl := range f.Clauses {
		for _, lit := range cl {
			fmt.Fprintf(bw, "%d ", lit)
		}
		fmt.Fprintln(bw, 0)
	}
	return bw.Flush()
}

// Result is a parsed external-solver answer: the verdict and, for SAT,
// the model indexed by DIMACS variable (1..NumVars; entry 0 unused).
// Variables the solver did not mention default to false.
type Result struct {
	Status sat.Status
	Model  []bool
}

// ParseResult parses the output of a DIMACS solver invocation in the
// SAT-competition format — an `s SATISFIABLE` / `s UNSATISFIABLE` /
// `s UNKNOWN` status line plus `v` value lines terminated by 0 — and in
// the bare minisat result-file dialect (`SAT`/`UNSAT` status, literal
// lines without the `v ` prefix). Malformed output is an error, never a
// silent verdict: a missing or repeated status line (in either
// dialect), a truncated model (v lines that never reach the 0
// terminator), a satisfiable claim without a model, literals outside
// 1..numVars, or garbage tokens.
func ParseResult(r io.Reader, numVars int) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	res := &Result{Status: sat.Unknown}
	sawStatus := false
	model := make([]bool, numVars+1)
	inModel := false    // saw at least one value literal
	terminated := false // saw the 0 terminator
	setStatus := func(line string, st sat.Status) error {
		if sawStatus {
			return fmt.Errorf("dimacs: duplicate status line %q", line)
		}
		sawStatus = true
		res.Status = st
		return nil
	}
	addLits := func(fields []string) error {
		for _, tok := range fields {
			lit, err := strconv.Atoi(tok)
			if err != nil {
				return fmt.Errorf("dimacs: bad value literal %q in solver output", tok)
			}
			if lit == 0 {
				terminated = true
				return nil
			}
			if terminated {
				return fmt.Errorf("dimacs: value literal %d after model terminator", lit)
			}
			v := lit
			if v < 0 {
				v = -v
			}
			if v > numVars {
				return fmt.Errorf("dimacs: value literal %d exceeds %d problem variables", lit, numVars)
			}
			inModel = true
			model[v] = lit > 0
		}
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var err error
		switch {
		case line == "" || strings.HasPrefix(line, "c"):
			continue
		case strings.HasPrefix(line, "s "):
			switch strings.TrimSpace(line[2:]) {
			case "SATISFIABLE":
				err = setStatus(line, sat.Sat)
			case "UNSATISFIABLE":
				err = setStatus(line, sat.Unsat)
			case "UNKNOWN", "INDETERMINATE":
				err = setStatus(line, sat.Unknown)
			default:
				err = fmt.Errorf("dimacs: unrecognized status line %q", line)
			}
		case line == "SAT" || line == "SATISFIABLE":
			err = setStatus(line, sat.Sat)
		case line == "UNSAT" || line == "UNSATISFIABLE":
			err = setStatus(line, sat.Unsat)
		case line == "INDET" || line == "INDETERMINATE" || line == "UNKNOWN":
			err = setStatus(line, sat.Unknown)
		case strings.HasPrefix(line, "v ") || line == "v":
			err = addLits(strings.Fields(line[1:]))
		default:
			// Bare literal lines (minisat result files) — every field must
			// be an integer, anything else is garbage.
			err = addLits(strings.Fields(line))
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawStatus {
		return nil, fmt.Errorf("dimacs: solver output has no status line")
	}
	if res.Status == sat.Sat {
		// A terminated-but-empty model (just "v 0") is valid: a formula
		// over zero variables is trivially satisfiable.
		if !terminated {
			return nil, fmt.Errorf("dimacs: satisfiable verdict without a terminated model")
		}
		res.Model = model
	} else if inModel {
		return nil, fmt.Errorf("dimacs: %v verdict carries value literals", res.Status)
	}
	return res, nil
}

// LoadIntoSolver creates the formula's variables in s (which must be
// fresh) and adds all clauses. It returns the sat.Lit corresponding to
// each DIMACS variable (index 1..NumVars) and whether the formula is
// already unsatisfiable at level 0.
func LoadIntoSolver(s *sat.Solver, f *Formula) (vars []sat.Lit, ok bool) {
	vars = make([]sat.Lit, f.NumVars+1)
	for i := 1; i <= f.NumVars; i++ {
		vars[i] = sat.PosLit(s.NewVar())
	}
	ok = true
	for _, cl := range f.Clauses {
		lits := make([]sat.Lit, len(cl))
		for i, l := range cl {
			if l > 0 {
				lits[i] = vars[l]
			} else {
				lits[i] = vars[-l].Neg()
			}
		}
		ok = s.AddClause(lits...) && ok
	}
	return vars, ok
}

// FromSolverProblem converts clauses expressed as sat.Lit slices over a
// solver's variable space into a DIMACS formula (variables shift to
// 1-based).
func FromSolverProblem(nVars int, clauses [][]sat.Lit) *Formula {
	f := &Formula{NumVars: nVars}
	for _, cl := range clauses {
		out := make([]int, len(cl))
		for i, l := range cl {
			v := l.Var() + 1
			if l.Sign() {
				out[i] = -v
			} else {
				out[i] = v
			}
		}
		f.Clauses = append(f.Clauses, out)
	}
	return f
}
