package sat_test

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/sat"
	"repro/internal/sat/procengine"
	"repro/internal/sat/testsolver"
)

// TestDifferentialVerdicts decides random 3-CNFs near the
// satisfiability threshold, each under 0–3 random assumption literals,
// on every solving path the attacks can take — the internal CDCL engine
// under four configurations that span the heuristic corners (restart
// schedule, decision phase, decay agility, random decisions), the verdict
// memo (a second engine over the same memo must answer from it), the
// disk memo tier (a fresh memo over the reopened store must answer from
// disk), and the stub solver through the DIMACS pipe — and checks each
// verdict against an ROBDD of the formula, built independently of every
// SAT code path. Every SAT model must satisfy every clause and
// assumption.
func TestDifferentialVerdicts(t *testing.T) {
	stub := testsolver.Build(t)
	configs := []sat.Config{
		{},
		{Seed: 0x9E3779B9, Restart: sat.RestartGeometric},
		{Seed: 2 * 0x9E3779B9, VarDecay: 0.90, Phase: sat.PhaseFalse},
		{Seed: 3 * 0x9E3779B9, RandomFreq: 0.02, Phase: sat.PhaseRandom},
	}
	memo := sat.NewMemo(0)
	diskDir := t.TempDir()
	disk, err := sat.OpenDiskMemo(diskDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	diskMemo := sat.NewMemo(0)
	diskMemo.AttachDisk(disk)
	rng := rand.New(rand.NewSource(2019))
	verdicts := map[sat.Status]int{}
	for i := 0; i < 200; i++ {
		nVars := 6 + rng.Intn(7)
		clauses := random3CNF(rng, nVars, (43*nVars+5)/10)
		var assumptions []sat.Lit
		for _, v := range rng.Perm(nVars)[:rng.Intn(4)] {
			assumptions = append(assumptions, sat.MkLit(v, rng.Intn(2) == 0))
		}
		want := bddVerdict(t, nVars, clauses, assumptions)
		verdicts[want]++

		check := func(name string, e sat.Engine) {
			t.Helper()
			for v := 0; v < nVars; v++ {
				e.NewVar()
			}
			for _, cl := range clauses {
				e.AddClause(cl...)
			}
			got := e.SolveAssuming(assumptions)
			if got != want {
				t.Fatalf("formula %d (%d vars, assumptions %v): %s says %v, BDD says %v", i, nVars, assumptions, name, got, want)
			}
			if got != sat.Sat {
				return
			}
			for _, cl := range clauses {
				if !anyTrue(e, cl) {
					t.Fatalf("formula %d: %s model falsifies clause %v", i, name, cl)
				}
			}
			for _, a := range assumptions {
				if !e.LitTrue(a) {
					t.Fatalf("formula %d: %s model falsifies assumption %v", i, name, a)
				}
			}
		}
		for _, cfg := range configs {
			check(cfg.String(), sat.NewWith(cfg))
		}
		check("memo", sat.NewMemoEngine(memo, nil, sat.New()))
		cached := sat.NewMemoEngine(memo, nil, sat.New())
		check("memo (second engine)", cached)
		if cached.LastTier() != sat.TierMemory {
			t.Fatalf("formula %d: second memo engine answered from %v, want the memo", i, cached.LastTier())
		}
		if i%10 == 0 {
			check("stub", procengine.New(stub))
		}

		// The disk tier: a write-through memo persists the verdict, and a
		// fresh memo over the store reopened as a new process would open
		// it answers from the decoded record.
		check("disk memo", sat.NewMemoEngine(diskMemo, nil, sat.New()))
		reopened, err := sat.OpenDiskMemo(diskDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh := sat.NewMemo(0)
		fresh.AttachDisk(reopened)
		fromDisk := sat.NewMemoEngine(fresh, nil, sat.New())
		check("disk memo (reopened)", fromDisk)
		if fromDisk.LastTier() != sat.TierDisk {
			t.Fatalf("formula %d: reopened disk memo answered from %v, want the disk", i, fromDisk.LastTier())
		}
	}
	t.Logf("verdicts: %d SAT, %d UNSAT", verdicts[sat.Sat], verdicts[sat.Unsat])
	if verdicts[sat.Sat] == 0 || verdicts[sat.Unsat] == 0 {
		t.Fatal("both SAT and UNSAT must occur")
	}
}

// random3CNF draws m clauses of three literals over distinct variables.
func random3CNF(rng *rand.Rand, nVars, m int) [][]sat.Lit {
	clauses := make([][]sat.Lit, m)
	for i := range clauses {
		for _, v := range rng.Perm(nVars)[:3] {
			clauses[i] = append(clauses[i], sat.MkLit(v, rng.Intn(2) == 0))
		}
	}
	return clauses
}

func anyTrue(e sat.Engine, cl []sat.Lit) bool {
	for _, l := range cl {
		if e.LitTrue(l) {
			return true
		}
	}
	return false
}

// bddVerdict decides the clauses plus assumption units by building
// their conjunction as an ROBDD: satisfiable iff it is not False.
func bddVerdict(t *testing.T, nVars int, clauses [][]sat.Lit, assumptions []sat.Lit) sat.Status {
	t.Helper()
	m := bdd.New(nVars, 0)
	must := func(n bdd.Node, err error) bdd.Node {
		if err != nil {
			t.Fatalf("bdd oracle: %v", err)
		}
		return n
	}
	lit := func(l sat.Lit) bdd.Node {
		n := m.Var(l.Var())
		if l.Sign() {
			n = must(m.Not(n))
		}
		return n
	}
	f := bdd.True
	for _, cl := range clauses {
		c := bdd.False
		for _, l := range cl {
			c = must(m.Or(c, lit(l)))
		}
		f = must(m.And(f, c))
	}
	for _, a := range assumptions {
		f = must(m.And(f, lit(a)))
	}
	if f == bdd.False {
		return sat.Unsat
	}
	return sat.Sat
}
