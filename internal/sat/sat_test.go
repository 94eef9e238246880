package sat

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestLitBasics(t *testing.T) {
	l := PosLit(3)
	if l.Var() != 3 || l.Sign() {
		t.Errorf("PosLit(3): var=%d sign=%v", l.Var(), l.Sign())
	}
	n := l.Neg()
	if n.Var() != 3 || !n.Sign() {
		t.Errorf("Neg: var=%d sign=%v", n.Var(), n.Sign())
	}
	if n.Neg() != l {
		t.Error("double negation is not identity")
	}
	if NegLit(3) != n {
		t.Error("NegLit mismatch")
	}
	if l.String() != "x3" || n.String() != "~x3" {
		t.Errorf("String: %s %s", l, n)
	}
}

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want SAT", got)
	}
	if !s.Value(a) {
		t.Error("unit clause not respected in model")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(PosLit(a)) {
		t.Fatal("first unit rejected")
	}
	if s.AddClause(NegLit(a)) {
		t.Fatal("contradictory unit accepted")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want UNSAT", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause accepted")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want UNSAT", got)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(PosLit(a), NegLit(a)) {
		t.Fatal("tautology rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want SAT", got)
	}
}

func TestXorChain(t *testing.T) {
	// Encode x0 xor x1 = 1, x1 xor x2 = 1, ..., forcing alternation, plus
	// x0 = 1. SAT with a unique model.
	const n = 10
	s := New()
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		a, b := vars[i], vars[i+1]
		// a xor b: (a | b) & (~a | ~b)
		s.AddClause(PosLit(a), PosLit(b))
		s.AddClause(NegLit(a), NegLit(b))
	}
	s.AddClause(PosLit(vars[0]))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want SAT", got)
	}
	for i := range vars {
		if s.Value(vars[i]) != (i%2 == 0) {
			t.Errorf("x%d = %v, want %v", i, s.Value(vars[i]), i%2 == 0)
		}
	}
}

// pigeonhole encodes PHP(p, h): p pigeons into h holes. UNSAT when p > h.
func pigeonhole(s *Solver, p, h int) {
	v := make([][]int, p)
	for i := range v {
		v[i] = make([]int, h)
		for j := range v[i] {
			v[i][j] = s.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		lits := make([]Lit, h)
		for j := 0; j < h; j++ {
			lits[j] = PosLit(v[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				s.AddClause(NegLit(v[i1][j]), NegLit(v[i2][j]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(6,5): got %v, want UNSAT", got)
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): got %v, want SAT", got)
	}
}

func TestConflictLimitUnknown(t *testing.T) {
	s := NewWith(Config{ConflictBudget: 5})
	pigeonhole(s, 8, 7)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("got %v, want UNKNOWN under tiny conflict budget", got)
	}
	// A budgeted Unknown leaves the solver usable: each call spends a
	// fresh budget and keeps what earlier calls learnt, so repeated
	// calls reach the verdict.
	for calls := 2; ; calls++ {
		got := s.Solve()
		if got == Unsat {
			break
		}
		if got != Unknown || calls == 100000 {
			t.Fatalf("call %d: got %v, want UNKNOWN until UNSAT", calls, got)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: Solve must give up immediately
	s.SetContext(ctx)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("got %v with cancelled context, want UNKNOWN", got)
	}
	s.SetContext(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v after detaching context, want UNSAT", got)
	}
}

func TestContextDeadline(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s.SetContext(ctx)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("got %v with expired context deadline, want UNKNOWN", got)
	}
	// Detaching the context also drops its deadline.
	s.SetContext(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v after detaching context with expired deadline, want UNSAT", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	// a -> b
	s.AddClause(NegLit(a), PosLit(b))
	if got := s.SolveAssuming([]Lit{PosLit(a), NegLit(b)}); got != Unsat {
		t.Fatalf("assuming a & ~b with a->b: got %v, want UNSAT", got)
	}
	// The solver must remain usable and the problem satisfiable.
	if got := s.SolveAssuming([]Lit{PosLit(a)}); got != Sat {
		t.Fatalf("assuming a: got %v, want SAT", got)
	}
	if !s.Value(b) {
		t.Error("model must satisfy b under assumption a")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("unconstrained: got %v, want SAT", got)
	}
}

func TestIncrementalStrengthening(t *testing.T) {
	s := New()
	n := 6
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// at-least-one
	lits := make([]Lit, n)
	for i := range lits {
		lits[i] = PosLit(vars[i])
	}
	s.AddClause(lits...)
	for i := 0; i < n; i++ {
		if got := s.Solve(); got != Sat {
			t.Fatalf("iteration %d: got %v, want SAT", i, got)
		}
		// Forbid the variable that the model set true.
		banned := -1
		for _, v := range vars {
			if s.Value(v) {
				banned = v
				break
			}
		}
		if banned < 0 {
			t.Fatal("model does not satisfy at-least-one clause")
		}
		s.AddClause(NegLit(banned))
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after banning all: got %v, want UNSAT", got)
	}
}

func TestNewVarAfterSolve(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatal(got)
	}
	b := s.NewVar()
	s.AddClause(NegLit(b))
	if got := s.Solve(); got != Sat {
		t.Fatal(got)
	}
	if !s.Value(a) || s.Value(b) {
		t.Error("model wrong after incremental var addition")
	}
}

// bruteForce checks satisfiability of a CNF by enumeration (≤ 20 vars).
func bruteForce(nVars int, cnf [][]Lit) (bool, []bool) {
	assign := make([]bool, nVars)
	for m := 0; m < 1<<uint(nVars); m++ {
		for v := 0; v < nVars; v++ {
			assign[v] = m&(1<<uint(v)) != 0
		}
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				if assign[l.Var()] != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true, assign
		}
	}
	return false, nil
}

func randomCNF(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	cnf := make([][]Lit, nClauses)
	for i := range cnf {
		k := 1 + rng.Intn(3)
		cl := make([]Lit, k)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
		}
		cnf[i] = cl
	}
	return cnf
}

// Property: CDCL verdict matches brute force on random small CNFs, and
// models returned actually satisfy the formula.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(10)
		nClauses := 2 + rng.Intn(40)
		cnf := randomCNF(rng, nVars, nClauses)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve()
		want, _ := bruteForce(nVars, cnf)
		if (got == Sat) != want {
			t.Logf("seed %d: solver=%v brute=%v", seed, got, want)
			return false
		}
		if got == Sat {
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.LitTrue(l) {
						ok = true
						break
					}
				}
				if !ok {
					t.Logf("seed %d: model violates clause %v", seed, cl)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: assumptions behave like added unit clauses.
func TestQuickAssumptionsMatchUnits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(8)
		cnf := randomCNF(rng, nVars, 2+rng.Intn(25))
		var assumps []Lit
		for v := 0; v < nVars; v++ {
			if rng.Intn(3) == 0 {
				assumps = append(assumps, MkLit(v, rng.Intn(2) == 1))
			}
		}
		s1 := New()
		for i := 0; i < nVars; i++ {
			s1.NewVar()
		}
		for _, cl := range cnf {
			s1.AddClause(cl...)
		}
		got := s1.SolveAssuming(assumps)

		s2 := New()
		for i := 0; i < nVars; i++ {
			s2.NewVar()
		}
		ok := true
		for _, cl := range cnf {
			ok = s2.AddClause(cl...) && ok
		}
		for _, a := range assumps {
			ok = s2.AddClause(a) && ok
		}
		want := Unsat
		if ok {
			want = s2.Solve()
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Errorf("stats not collected: %+v", st)
	}
	if st.SolveCalls != 1 {
		t.Errorf("SolveCalls = %d", st.SolveCalls)
	}
}

func TestLargeRandomSatisfiable(t *testing.T) {
	// A planted-solution instance: generate a random assignment and only
	// emit clauses satisfied by it. Must be SAT and the solver must find
	// some model (not necessarily the planted one).
	rng := rand.New(rand.NewSource(99))
	const nVars = 300
	const nClauses = 1200
	planted := make([]bool, nVars)
	for i := range planted {
		planted[i] = rng.Intn(2) == 1
	}
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	var cnf [][]Lit
	for len(cnf) < nClauses {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
		}
		okByPlanted := false
		for _, l := range cl {
			if planted[l.Var()] != l.Sign() {
				okByPlanted = true
				break
			}
		}
		if okByPlanted {
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("planted instance: got %v, want SAT", got)
	}
	for _, cl := range cnf {
		ok := false
		for _, l := range cl {
			if s.LitTrue(l) {
				ok = true
			}
		}
		if !ok {
			t.Fatal("model violates a clause")
		}
	}
}

func TestValueOfUnknownVarIsFalse(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	s.Solve()
	b := s.NewVar() // created after solve; no model entry
	if s.Value(b) {
		t.Error("unsolved variable should report false")
	}
}
