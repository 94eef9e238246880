package procengine

import (
	"context"
	"testing"
	"time"

	"repro/internal/sat"
	"repro/internal/sat/testsolver"
)

// load fills an engine with a named deterministic instance and returns
// the expected verdict.
type instance struct {
	name string
	want sat.Status
	load func(e sat.Engine)
}

func pigeonhole(e sat.Engine, p, h int) {
	v := make([][]int, p)
	for i := range v {
		v[i] = make([]int, h)
		for j := range v[i] {
			v[i][j] = e.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		lits := make([]sat.Lit, h)
		for j := 0; j < h; j++ {
			lits[j] = sat.PosLit(v[i][j])
		}
		e.AddClause(lits...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				e.AddClause(sat.NegLit(v[i1][j]), sat.NegLit(v[i2][j]))
			}
		}
	}
}

func instances() []instance {
	return []instance{
		{"php54-unsat", sat.Unsat, func(e sat.Engine) { pigeonhole(e, 5, 4) }},
		{"php44-sat", sat.Sat, func(e sat.Engine) { pigeonhole(e, 4, 4) }},
		{"xor-chain-sat", sat.Sat, func(e sat.Engine) {
			vars := make([]int, 10)
			for i := range vars {
				vars[i] = e.NewVar()
			}
			for i := 0; i+1 < len(vars); i++ {
				e.AddClause(sat.PosLit(vars[i]), sat.PosLit(vars[i+1]))
				e.AddClause(sat.NegLit(vars[i]), sat.NegLit(vars[i+1]))
			}
			e.AddClause(sat.PosLit(vars[0]))
		}},
	}
}

// TestVerdictsMatchInternal: the DIMACS-pipe engine through the stub
// solver agrees with the internal engine on every table instance, and
// its SAT models satisfy the formula.
func TestVerdictsMatchInternal(t *testing.T) {
	stub := testsolver.Build(t)
	for _, inst := range instances() {
		ref := sat.New()
		inst.load(ref)
		want := ref.Solve()
		if want != inst.want {
			t.Fatalf("%s: internal engine says %v, table says %v", inst.name, want, inst.want)
		}

		e := New(stub)
		inst.load(e)
		got := e.Solve()
		if got != want {
			t.Fatalf("%s: process engine %v, internal %v (err: %v)", inst.name, got, want, e.Err())
		}
		if e.Err() != nil {
			t.Errorf("%s: clean solve left an error: %v", inst.name, e.Err())
		}
		if got == sat.Sat {
			// The stub runs the same default-configured CDCL search, so
			// the models must match variable for variable.
			for v := 0; v < ref.NumVars(); v++ {
				if e.Value(v) != ref.Value(v) {
					t.Errorf("%s: model differs at x%d", inst.name, v)
					break
				}
			}
		}
	}
}

// TestSolveAssuming: assumptions act as per-call units — they flip
// verdicts for the call, and do not leak into later calls.
func TestSolveAssuming(t *testing.T) {
	stub := testsolver.Build(t)
	e := New(stub)
	x, y := e.NewVar(), e.NewVar()
	e.AddClause(sat.PosLit(x), sat.PosLit(y)) // x or y
	e.AddClause(sat.NegLit(x), sat.NegLit(y)) // not both

	if got := e.Solve(); got != sat.Sat {
		t.Fatalf("base: %v (err: %v)", got, e.Err())
	}
	if got := e.SolveAssuming([]sat.Lit{sat.PosLit(x), sat.PosLit(y)}); got != sat.Unsat {
		t.Fatalf("assuming x∧y: %v (err: %v)", got, e.Err())
	}
	if got := e.SolveAssuming([]sat.Lit{sat.PosLit(x)}); got != sat.Sat {
		t.Fatalf("assuming x: %v (err: %v)", got, e.Err())
	}
	if !e.LitTrue(sat.PosLit(x)) || e.LitTrue(sat.PosLit(y)) {
		t.Errorf("assuming x: model x=%v y=%v, want true/false", e.Value(x), e.Value(y))
	}
	// The assumptions from previous calls must be gone.
	if got := e.SolveAssuming([]sat.Lit{sat.NegLit(x)}); got != sat.Sat {
		t.Fatalf("assuming ¬x after earlier assumptions: %v (err: %v)", got, e.Err())
	}
	if e.Value(x) || !e.Value(y) {
		t.Errorf("assuming ¬x: model x=%v y=%v, want false/true", e.Value(x), e.Value(y))
	}
}

// TestEmptyClauseIsUnsat: an empty clause makes every later call Unsat
// without spawning the solver.
func TestEmptyClauseIsUnsat(t *testing.T) {
	e := New("/nonexistent/solver")
	e.NewVar()
	if e.AddClause() {
		t.Error("empty clause accepted")
	}
	if got := e.Solve(); got != sat.Unsat {
		t.Errorf("after empty clause: %v", got)
	}
	if e.Err() != nil {
		t.Errorf("trivial Unsat must not touch the binary: %v", e.Err())
	}
}

// TestCancellationKillsProcess: cancelling the context kills a running
// solver and the call returns Unknown promptly, with no sticky error.
func TestCancellationKillsProcess(t *testing.T) {
	stub := testsolver.Build(t)
	e := New(stub, "-sleep=30s")
	x := e.NewVar()
	e.AddClause(sat.PosLit(x))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	e.SetContext(ctx)
	start := time.Now()
	got := e.Solve()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled solve took %v", elapsed)
	}
	if got != sat.Unknown {
		t.Errorf("cancelled solve: %v, want UNKNOWN", got)
	}
	if e.Err() != nil {
		t.Errorf("cancellation must not record an error: %v", e.Err())
	}
	// A pre-cancelled context short-circuits without spawning.
	if got := e.Solve(); got != sat.Unknown {
		t.Errorf("dead-context solve: %v, want UNKNOWN", got)
	}
}

// TestMalformedOutput: every fault-injection mode of the stub makes the
// engine return Unknown with a retained error — never a verdict. That
// includes a well-formed SAT answer whose model falsifies a clause.
func TestMalformedOutput(t *testing.T) {
	stub := testsolver.Build(t)
	modes := []string{"-mode=truncated", "-mode=nostatus", "-mode=garbage", "-mode=silent", "-mode=wrongmodel"}
	for _, mode := range modes {
		e := New(stub, mode)
		pigeonhole(e, 4, 4) // SAT instance, so truncated/nostatus emit a model
		if got := e.Solve(); got != sat.Unknown {
			t.Errorf("%s: verdict %v, want UNKNOWN", mode, got)
		}
		if e.Err() == nil {
			t.Errorf("%s: no error retained", mode)
		}
	}
}

// TestNonzeroExit: competition exit codes (10/20) with valid output are
// not failures; a nonzero exit with no parseable output is.
func TestNonzeroExit(t *testing.T) {
	stub := testsolver.Build(t)

	e := New(stub) // default competition codes: exits 10 on this SAT instance
	pigeonhole(e, 4, 4)
	if got := e.Solve(); got != sat.Sat || e.Err() != nil {
		t.Errorf("exit 10 with valid output: %v, err %v", got, e.Err())
	}

	e = New(stub, "-mode=silent", "-exit=3")
	pigeonhole(e, 4, 4)
	if got := e.Solve(); got != sat.Unknown {
		t.Errorf("exit 3, no output: verdict %v, want UNKNOWN", got)
	}
	if e.Err() == nil {
		t.Error("exit 3, no output: no error retained")
	}
}

// TestMissingBinary: a solver that is not on PATH yields Unknown with a
// retained error (Check fails fast upstream).
func TestMissingBinary(t *testing.T) {
	e := New("definitely-not-a-sat-solver-7f3a")
	x := e.NewVar()
	e.AddClause(sat.PosLit(x))
	if got := e.Solve(); got != sat.Unknown {
		t.Errorf("missing binary: verdict %v, want UNKNOWN", got)
	}
	if e.Err() == nil {
		t.Error("missing binary: no error retained")
	}
}
