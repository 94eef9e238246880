package sat_test

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// testOp is one step of a random variable/clause stream: allocate vars
// fresh variables, then (when has) add clause.
type testOp struct {
	vars   int
	clause []sat.Lit
	has    bool
}

// randOps generates a random interleaved variable/clause stream over
// at most maxVars variables. Ops with a nil clause only allocate vars.
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

func applyOps(e sat.Engine, ops []testOp) {
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

// TestMemoEngineMatchesDirect is the core property of the memo engine:
// over random interleavings of variable-only ops, clauses and trailing
// NewVars, and random assumptions, a memo engine answers every query
// with the verdict AND the model of a plain engine built by the same
// calls — when it solves (misses), when it answers from the memo
// (hits), and when a miss follows a hit, which first replays the
// logged calls and the answered query into the inner engine.
func TestMemoEngineMatchesDirect(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 24)
		if rng.Intn(2) == 0 {
			ops = append(ops, testOp{vars: 1 + rng.Intn(3)}) // trailing NewVars
		}
		cut := 1 + rng.Intn(len(ops)) // ops[0] allocates variables for q1
		nVars := countVars(ops)
		q1 := randAssumptions(rng, countVars(ops[:cut]))
		q2 := randAssumptions(rng, nVars)
		// One more literal than q2, so its key differs from q2's.
		q2miss := append(append([]sat.Lit(nil), q2...), sat.PosLit(rng.Intn(nVars)))

		memo := sat.NewMemo(0)
		for _, tc := range []struct {
			name   string
			second []sat.Lit
			tiers  [2]sat.MemoTier
		}{
			{"cold", q2, [2]sat.MemoTier{sat.TierMiss, sat.TierMiss}},
			{"warm", q2, [2]sat.MemoTier{sat.TierMemory, sat.TierMemory}},
			{"hit-then-miss", q2miss, [2]sat.MemoTier{sat.TierMemory, sat.TierMiss}},
		} {
			ref := sat.New()
			e := sat.NewMemoEngine(memo, nil, sat.New())
			steps := [2][]testOp{ops[:cut], ops[cut:]}
			queries := [2][]sat.Lit{q1, tc.second}
			for i := range steps {
				applyOps(ref, steps[i])
				applyOps(e, steps[i])
				if e.NumVars() != ref.NumVars() {
					t.Fatalf("seed %d %s: step %d leaves %d vars, direct %d", seed, tc.name, i+1, e.NumVars(), ref.NumVars())
				}
				want, got := ref.SolveAssuming(queries[i]), e.SolveAssuming(queries[i])
				if e.LastTier() != tc.tiers[i] {
					t.Fatalf("seed %d %s: query %d answered by %v, want %v", seed, tc.name, i+1, e.LastTier(), tc.tiers[i])
				}
				if got != want {
					t.Fatalf("seed %d %s: query %d verdict %v, direct %v", seed, tc.name, i+1, got, want)
				}
				if want != sat.Sat {
					continue
				}
				for v := 0; v < ref.NumVars(); v++ {
					if ref.Value(v) != e.Value(v) {
						t.Fatalf("seed %d %s: query %d model differs at var %d", seed, tc.name, i+1, v)
					}
				}
			}
		}
	}
}

// TestMemoKeyIsTheFormula: the memo key is (formula hash,
// assumptions). Equal op logs share a key, so a second engine built by
// the same calls answers from the memo; one changed clause literal, one
// trailing NewVar, or different assumptions give a different key, so
// the query misses.
func TestMemoKeyIsTheFormula(t *testing.T) {
	memo := sat.NewMemo(0)
	tier := func(flip, trailingVar bool, as ...sat.Lit) sat.MemoTier {
		t.Helper()
		e := sat.NewMemoEngine(memo, nil, sat.New())
		a, b := sat.PosLit(e.NewVar()), sat.PosLit(e.NewVar())
		e.AddClause(a, b)
		if flip {
			e.AddClause(a.Neg(), b.Neg())
		} else {
			e.AddClause(a.Neg(), b)
		}
		if trailingVar {
			e.NewVar()
		}
		if st := e.SolveAssuming(as); st != sat.Sat {
			t.Fatalf("query: %v, want Sat", st)
		}
		return e.LastTier()
	}
	if got := tier(false, false); got != sat.TierMiss {
		t.Fatalf("first query answered by %v, want a miss", got)
	}
	if got := tier(false, false); got != sat.TierMemory {
		t.Fatalf("equal op log answered by %v, want a memory hit", got)
	}
	if got := tier(true, false); got != sat.TierMiss {
		t.Fatalf("changed clause answered by %v, want a miss", got)
	}
	if got := tier(false, true); got != sat.TierMiss {
		t.Fatalf("trailing NewVar answered by %v, want a miss", got)
	}
	if got := tier(false, false, sat.PosLit(1)); got != sat.TierMiss {
		t.Fatalf("new assumptions answered by %v, want a miss", got)
	}
	if got := memo.Stats(); got.Hits != 1 || got.Misses != 4 {
		t.Fatalf("stats %+v, want 1 hit / 4 misses", got)
	}
}

// TestMemoEngineHitsAndModelIdentity: two engines over the same shared
// memo build the same formula and ask the same query; the second
// answers from the cache with the identical verdict and model, without
// ever running a solver.
func TestMemoEngineHitsAndModelIdentity(t *testing.T) {
	memo := sat.NewMemo(0)
	var ctr sat.MemoCounters
	build := func() (*sat.MemoEngine, sat.Lit) {
		e := sat.NewMemoEngine(memo, &ctr, sat.New())
		a, b, c := sat.PosLit(e.NewVar()), sat.PosLit(e.NewVar()), sat.PosLit(e.NewVar())
		e.AddClause(a, b)
		e.AddClause(a.Neg(), c)
		e.AddClause(b.Neg(), c.Neg())
		return e, a
	}

	e1, a := build()
	st1 := e1.SolveAssuming([]sat.Lit{a})
	if st1 != sat.Sat {
		t.Fatalf("first solve: %v, want Sat", st1)
	}
	model1 := []bool{e1.Value(0), e1.Value(1), e1.Value(2)}

	e2, a := build()
	st2 := e2.SolveAssuming([]sat.Lit{a})
	if st2 != sat.Sat {
		t.Fatalf("cached solve: %v, want Sat", st2)
	}
	model2 := []bool{e2.Value(0), e2.Value(1), e2.Value(2)}
	for v := range model1 {
		if model1[v] != model2[v] {
			t.Fatalf("cached model differs at var %d", v)
		}
	}
	if got := ctr.Snapshot(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("counters %+v, want 1 hit / 1 miss", got)
	}
	if got := memo.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("global stats %+v, want 1 hit / 1 miss", got)
	}
	if got := e2.Stats(); got.Conflicts != 0 || got.Decisions != 0 || got.Propagations != 0 {
		t.Fatalf("cached engine searched: %+v", got)
	}
	// LitTrue must read the cached model too.
	if e2.LitTrue(a) != model2[0] || e2.LitTrue(a.Neg()) == model2[0] {
		t.Fatalf("LitTrue inconsistent with cached model")
	}
}

// TestMemoEngineStateParity is the determinism property behind the
// byte-identical CI diffs: an engine whose early queries were answered
// from the memo must — on a later miss — produce exactly the model an
// uncached engine produces, because the wrapper replays the query
// history into the inner engine before solving (learnt-clause state
// parity).
func TestMemoEngineStateParity(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 20)
		nVars := countVars(ops)

		q1 := randAssumptions(rng, nVars)
		q2 := randAssumptions(rng, nVars)
		extra := randAssumptions(rng, nVars) // becomes a clause after q1
		if len(extra) == 0 {
			extra = []sat.Lit{sat.PosLit(rng.Intn(nVars))}
		}

		// Reference: no memo anywhere.
		ref := sat.New()
		applyOps(ref, ops)
		ref.SolveAssuming(q1)
		ref.AddClause(extra...)
		wantSt := ref.SolveAssuming(q2)

		memo := sat.NewMemo(0)
		// Engine A populates the cache for q1.
		ea := sat.NewMemoEngine(memo, nil, sat.New())
		applyOps(ea, ops)
		ea.SolveAssuming(q1)

		// Engine B hits on q1 (no solver yet), then adds a clause; q2
		// over the extended formula misses, forcing the inner engine to
		// catch up on the logged calls and the query history.
		eb := sat.NewMemoEngine(memo, nil, sat.New())
		applyOps(eb, ops)
		eb.SolveAssuming(q1)
		eb.AddClause(extra...)
		gotSt := eb.SolveAssuming(q2)
		if gotSt != wantSt {
			t.Fatalf("seed %d: verdict %v, want %v", seed, gotSt, wantSt)
		}
		if wantSt == sat.Sat {
			for v := 0; v < nVars; v++ {
				if ref.Value(v) != eb.Value(v) {
					t.Fatalf("seed %d: model differs at var %d after memo-hit history", seed, v)
				}
			}
		}
	}
}

// TestMemoCap: beyond the entry cap, results are recomputed but not
// stored in memory — and every such drop is accounted in Capped (both
// the memo's global stats and the per-run counters), never silent.
func TestMemoCap(t *testing.T) {
	memo := sat.NewMemo(1)
	var ctr sat.MemoCounters
	mk := func() *sat.MemoEngine {
		e := sat.NewMemoEngine(memo, &ctr, sat.New())
		a := sat.PosLit(e.NewVar())
		e.AddClause(a)
		return e
	}
	e1 := mk()
	e1.Solve()
	if memo.Len() != 1 {
		t.Fatalf("entries %d, want 1", memo.Len())
	}
	if got := memo.Stats().Capped; got != 0 {
		t.Fatalf("capped %d before the cap was hit", got)
	}
	e2 := mk()
	e2.AddClause(sat.PosLit(e2.NewVar())) // different delta -> different key
	e2.Solve()
	if memo.Len() != 1 {
		t.Fatalf("cap exceeded: %d entries", memo.Len())
	}
	if got := memo.Stats().Capped; got != 1 {
		t.Fatalf("capped %d after first over-cap store, want 1", got)
	}
	// The uncached query still answers correctly — and, having been
	// dropped rather than stored, is recomputed and dropped again.
	e3 := mk()
	e3.AddClause(sat.PosLit(e3.NewVar()))
	if st := e3.Solve(); st != sat.Sat {
		t.Fatalf("over-cap solve: %v, want Sat", st)
	}
	if got := memo.Stats(); got.Capped != 2 || got.Misses != 3 {
		t.Fatalf("global stats %+v, want 2 capped / 3 misses", got)
	}
	if got := ctr.Snapshot(); got.Capped != 2 {
		t.Fatalf("per-run counters %+v, want 2 capped", got)
	}
}
