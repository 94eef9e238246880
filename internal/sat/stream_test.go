package sat_test

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// randOps generates a random interleaved variable/clause stream over
// at most maxVars variables. Ops with a nil clause only allocate vars.
type testOp struct {
	vars   int
	clause []sat.Lit
	has    bool
}

func randOps(rng *rand.Rand, maxVars int) []testOp {
	var ops []testOp
	nVars := 0
	// Seed a few variables so the first clauses have something to bite.
	first := 2 + rng.Intn(4)
	ops = append(ops, testOp{vars: first})
	nVars += first
	nClauses := 1 + rng.Intn(3*maxVars)
	for c := 0; c < nClauses; c++ {
		if nVars < maxVars && rng.Intn(3) == 0 {
			k := 1 + rng.Intn(3)
			ops = append(ops, testOp{vars: k})
			nVars += k
			continue
		}
		width := 1 + rng.Intn(3)
		cl := make([]sat.Lit, 0, width)
		for i := 0; i < width; i++ {
			l := sat.PosLit(rng.Intn(nVars))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			cl = append(cl, l)
		}
		ops = append(ops, testOp{clause: cl, has: true})
	}
	return ops
}

func applyOps(e interface {
	NewVar() int
	AddClause(...sat.Lit) bool
}, ops []testOp) {
	for _, op := range ops {
		for i := 0; i < op.vars; i++ {
			e.NewVar()
		}
		if op.has {
			e.AddClause(op.clause...)
		}
	}
}

func randAssumptions(rng *rand.Rand, nVars int) []sat.Lit {
	n := rng.Intn(4)
	as := make([]sat.Lit, 0, n)
	for i := 0; i < n; i++ {
		l := sat.PosLit(rng.Intn(nVars))
		if rng.Intn(2) == 0 {
			l = l.Neg()
		}
		as = append(as, l)
	}
	return as
}

func countVars(ops []testOp) int {
	n := 0
	for _, op := range ops {
		n += op.vars
	}
	return n
}

// TestFrozenReplayIdentity is the core property: solving a frozen
// prefix plus delta — built through Stream/Freeze/Prime — returns the
// same verdict AND the same model as building the identical stream
// directly into a solver, across randomized streams, freeze points and
// assumptions.
func TestFrozenReplayIdentity(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 24)
		nVars := countVars(ops)
		as := randAssumptions(rng, nVars)

		// Reference: direct construction, same interleaving.
		ref := sat.New()
		applyOps(ref, ops)
		want := ref.SolveAssuming(as)

		// Frozen path: freeze at up to two random cuts, prime, add the
		// delta directly to the engine.
		cut1 := rng.Intn(len(ops) + 1)
		cut2 := cut1 + rng.Intn(len(ops)-cut1+1)
		stream := sat.NewStream()
		applyOps(stream, ops[:cut1])
		stream.Freeze()
		applyOps(stream, ops[cut1:cut2])
		frozen := stream.Freeze()
		if frozen.NumVars() != countVars(ops[:cut2]) {
			t.Fatalf("seed %d: frozen has %d vars, want %d", seed, frozen.NumVars(), countVars(ops[:cut2]))
		}

		eng := sat.New()
		sat.Prime(eng, frozen)
		applyOps(eng, ops[cut2:])
		if eng.NumVars() != nVars {
			t.Fatalf("seed %d: primed engine has %d vars, want %d", seed, eng.NumVars(), nVars)
		}
		got := eng.SolveAssuming(as)
		if got != want {
			t.Fatalf("seed %d: frozen+delta verdict %v, direct %v", seed, got, want)
		}
		if want == sat.Sat {
			for v := 0; v < nVars; v++ {
				if ref.Value(v) != eng.Value(v) {
					t.Fatalf("seed %d: model differs at var %d", seed, v)
				}
			}
		}

		// A second fork of the same prefix must be independent: pinning a
		// variable false in one fork must not leak into the other.
		forkA := frozen.Fork()
		forkB := frozen.Fork()
		if nVars := forkA.NumVars(); nVars > 0 {
			forkA.AddClause(sat.PosLit(0).Neg())
			forkB.AddClause(sat.PosLit(0))
			ea, eb := sat.New(), sat.New()
			forkA.Replay(ea)
			forkB.Replay(eb)
			if ea.Solve() == sat.Sat && ea.Value(0) {
				t.Fatalf("seed %d: fork A sees fork B's clause", seed)
			}
			if eb.Solve() == sat.Sat && !eb.Value(0) {
				t.Fatalf("seed %d: fork B sees fork A's clause", seed)
			}
		}
	}
}

// TestFrozenReplayHeterogeneousPortfolio checks the verdict property
// through a racing portfolio primed with a frozen prefix whose members
// take the prefix two ways: the internal solver replays it clause by
// clause, the memo engine adopts it natively (sat.FrozenLoader). Both
// decide the same formula, so verdicts match the direct run. Models
// are not compared (the winning member varies); this runs under -race
// to exercise the priming + racing paths together.
func TestFrozenReplayHeterogeneousPortfolio(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 16)
		nVars := countVars(ops)
		as := randAssumptions(rng, nVars)

		ref := sat.New()
		applyOps(ref, ops)
		want := ref.SolveAssuming(as)

		cut := rng.Intn(len(ops) + 1)
		stream := sat.NewStream()
		applyOps(stream, ops[:cut])
		frozen := stream.Freeze()

		var ctr sat.MemoCounters
		memo := sat.NewMemoEngine(sat.NewMemo(0), &ctr, sat.NewWith(sat.Config{Seed: 3, Phase: sat.PhaseFalse}))
		p := sat.NewEnginePortfolio([]sat.Engine{sat.New(), memo}, nil)
		sat.Prime(p, frozen)
		applyOps(p, ops[cut:])
		if got := p.SolveAssuming(as); got != want {
			t.Fatalf("seed %d: portfolio verdict %v, direct %v", seed, got, want)
		}
	}
}

func TestFrozenHashes(t *testing.T) {
	build := func(extra bool) *sat.Frozen {
		s := sat.NewStream()
		a, b := sat.PosLit(s.NewVar()), sat.PosLit(s.NewVar())
		s.AddClause(a, b)
		if extra {
			s.AddClause(a.Neg(), b)
		}
		return s.Freeze()
	}
	f1, f2, f3 := build(false), build(false), build(true)
	if f1.Hash() != f2.Hash() {
		t.Fatalf("identical streams hash differently: %v vs %v", f1.Hash(), f2.Hash())
	}
	if f1.Hash() == f3.Hash() {
		t.Fatalf("different streams share a hash")
	}
	if f1.Hash() == sat.EmptyHash {
		t.Fatalf("non-empty stream has the empty hash")
	}
	if (*sat.Frozen)(nil).Hash() != sat.EmptyHash {
		t.Fatalf("nil frozen should hash as empty")
	}

	// Chained freezes: the child hash covers the parent.
	s := f1.Fork()
	s.AddClause(sat.PosLit(0))
	child := s.Freeze()
	if child.Hash() == f1.Hash() {
		t.Fatalf("chained freeze did not change the hash")
	}
	// Freezing with an empty delta returns the same prefix.
	again := s.Freeze()
	if again != child {
		t.Fatalf("empty-delta freeze created a new link")
	}

	// Delta hashes: equal deltas agree, and trailing var allocations are
	// part of the content.
	d1, d2 := child.Fork(), child.Fork()
	d1.AddClause(sat.PosLit(1))
	d2.AddClause(sat.PosLit(1))
	if d1.DeltaHash() != d2.DeltaHash() {
		t.Fatalf("identical deltas hash differently")
	}
	d2.NewVar()
	if d1.DeltaHash() == d2.DeltaHash() {
		t.Fatalf("trailing variable allocation not reflected in delta hash")
	}
}
