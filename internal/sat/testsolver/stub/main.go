// Command stub is a tiny DIMACS solver used to exercise the
// DIMACS-pipe engine (procengine) hermetically: it parses a CNF file
// (or stdin), decides it with the repository's internal CDCL solver,
// and prints a SAT-competition answer — `s SATISFIABLE` / `v ...`
// lines, exit code 10/20 like the real competition solvers. Because it
// runs the same default-configured search as the in-process engine, its
// answers are deterministic, and CI diffs a `-solver stub` run against
// the default engine's report.
//
// Fault-injection flags let tests cover procengine's malformed-output
// handling:
//
//	-mode=ok          normal answer (default)
//	-mode=nostatus    model lines with no s-line
//	-mode=truncated   drop the model's 0 terminator (and its tail)
//	-mode=garbage     unparseable status line
//	-mode=silent      no output at all
//	-mode=wrongmodel  well-formed SAT answer with the first model
//	                  literal flipped (a model that falsifies a clause)
//	-sleep=DUR        sleep before answering (cancellation tests)
//	-exit=N           override the exit code (-1 = competition codes)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dimacs"
	"repro/internal/sat"
)

func main() {
	mode := flag.String("mode", "ok", "output fault injection: ok | nostatus | truncated | garbage | silent | wrongmodel")
	sleep := flag.Duration("sleep", 0, "sleep before answering")
	exitCode := flag.Int("exit", -1, "exit code override (-1 = 10 for SAT, 20 for UNSAT, 0 otherwise)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "stub: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	formula, err := dimacs.Parse(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stub: %v\n", err)
		os.Exit(1)
	}
	if *sleep > 0 {
		time.Sleep(*sleep)
	}

	s := sat.New()
	vars, ok := dimacs.LoadIntoSolver(s, formula)
	st := sat.Unsat
	if ok {
		st = s.Solve()
	}

	fmt.Println("c stub dimacs solver")
	switch *mode {
	case "silent":
	case "garbage":
		fmt.Println("s MAYBE")
	case "ok", "nostatus", "truncated", "wrongmodel":
		if *mode != "nostatus" {
			switch st {
			case sat.Sat:
				fmt.Println("s SATISFIABLE")
			case sat.Unsat:
				fmt.Println("s UNSATISFIABLE")
			default:
				fmt.Println("s UNKNOWN")
			}
		}
		if st == sat.Sat || *mode == "nostatus" {
			printModel(s, vars, formula.NumVars, *mode)
		}
	default:
		fmt.Fprintf(os.Stderr, "stub: unknown mode %q\n", *mode)
		os.Exit(1)
	}

	switch {
	case *exitCode >= 0:
		os.Exit(*exitCode)
	case st == sat.Sat:
		os.Exit(10)
	case st == sat.Unsat:
		os.Exit(20)
	}
}

// printModel emits v-lines wrapped at ten literals per line (exercising
// multi-line model parsing); mode truncated drops the second half of
// the model and the 0 terminator, mode wrongmodel flips variable 1.
func printModel(s *sat.Solver, vars []sat.Lit, numVars int, mode string) {
	truncated := mode == "truncated"
	limit := numVars
	if truncated {
		limit = numVars / 2
	}
	for v := 1; v <= limit; v += 10 {
		fmt.Print("v")
		for u := v; u <= limit && u < v+10; u++ {
			val := s.LitTrue(vars[u])
			if mode == "wrongmodel" && u == 1 {
				val = !val
			}
			lit := u
			if !val {
				lit = -u
			}
			fmt.Printf(" %d", lit)
		}
		fmt.Println()
	}
	if !truncated {
		fmt.Println("v 0")
	}
}
