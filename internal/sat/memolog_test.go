package sat

import "testing"

// After a miss a memo engine's op log holds no op from before it, and no
// query: the miss replayed them into the inner engine, and nothing reads
// them again. The running digest and the variable count still cover the
// whole formula, so an engine built by the same calls hits on every
// query, and a miss after a hit replays only what was logged since the
// last miss.
func TestMemoEngineDropsReplayedOps(t *testing.T) {
	// part1 is (a ∨ b) ∧ ¬a over a = 0, b = 1; part2 adds c = 2 and c ∨ ¬b.
	part1 := func(e Engine) {
		a, b := e.NewVar(), e.NewVar()
		e.AddClause(PosLit(a), PosLit(b))
		e.AddClause(NegLit(a))
	}
	part2 := func(e Engine) {
		c := e.NewVar()
		e.AddClause(PosLit(c), NegLit(1))
	}
	held := func(e *MemoEngine) int { return len(e.log.ops) + len(e.log.lits) + len(e.queries) }
	memo := NewMemo(0)

	first := NewMemoEngine(memo, nil, New())
	part1(first)
	if st := first.Solve(); st != Sat || first.LastTier() != TierMiss {
		t.Fatalf("first query: %v from %v, want Sat from a miss", st, first.LastTier())
	}
	if n := held(first); n != 0 {
		t.Fatalf("after a miss the engine holds %d ops, literals and queries, want 0", n)
	}

	second := NewMemoEngine(memo, nil, New())
	part1(second)
	if second.Solve() != Sat || second.LastTier() != TierMemory {
		t.Fatalf("same formula on a second engine: answered by %v, want memory", second.LastTier())
	}
	if len(second.log.ops) != 2 || len(second.queries) != 1 {
		t.Fatalf("after a hit the log holds %d ops and %d queries, want 2 and 1", len(second.log.ops), len(second.queries))
	}
	part2(second)
	if second.SolveAssuming([]Lit{NegLit(2)}) != Unsat || second.LastTier() != TierMiss {
		t.Fatalf("extended formula: want Unsat from a miss, got %v", second.LastTier())
	}
	if n := held(second); n != 0 {
		t.Fatalf("after a hit and a miss the engine holds %d ops, literals and queries, want 0", n)
	}
	if second.NumVars() != 3 {
		t.Fatalf("NumVars after the drop = %d, want 3", second.NumVars())
	}
	if second.SolveAssuming(nil) != Sat || !second.Value(1) || !second.Value(2) {
		t.Fatal("the inner engine lost the replayed formula")
	}

	third := NewMemoEngine(memo, nil, New())
	part1(third)
	third.Solve()
	part2(third)
	if third.SolveAssuming([]Lit{NegLit(2)}) != Unsat || third.LastTier() != TierMemory {
		t.Fatalf("an engine built by the same calls answered from %v, want memory: the digest changed with the drop", third.LastTier())
	}
}
