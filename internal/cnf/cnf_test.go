package cnf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/sat"
)

// checkGateEquivTruth verifies that, for every input assignment forced via
// unit clauses, the encoded node literal matches circuit simulation.
func checkGateEquivTruth(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	ins := c.Inputs()
	if len(ins) > 10 {
		t.Fatalf("too many inputs for exhaustive check: %d", len(ins))
	}
	for p := 0; p < 1<<uint(len(ins)); p++ {
		s := sat.New()
		e := NewEncoder(s)
		lits := e.EncodeCircuit(c)
		assign := map[int]bool{}
		for i, id := range ins {
			v := p&(1<<uint(i)) != 0
			assign[id] = v
			e.Fix(lits[id], v)
		}
		if got := s.Solve(); got != sat.Sat {
			t.Fatalf("pattern %b: encoding unsatisfiable", p)
		}
		want := c.Eval(assign)
		for id := range c.Nodes {
			if s.LitTrue(lits[id]) != want[id] {
				t.Fatalf("pattern %b: node %d (%s): encoded %v, simulated %v",
					p, id, c.Nodes[id].Name, s.LitTrue(lits[id]), want[id])
			}
		}
	}
}

func TestEncodeAllGateTypes(t *testing.T) {
	c := circuit.New("gates")
	a := c.AddInput("a")
	b := c.AddInput("b")
	d := c.AddInput("d")
	c.MustGate("and", circuit.And, a, b, d)
	c.MustGate("nand", circuit.Nand, a, b)
	c.MustGate("or", circuit.Or, a, b, d)
	c.MustGate("nor", circuit.Nor, a, b)
	c.MustGate("xor", circuit.Xor, a, b, d)
	c.MustGate("xnor", circuit.Xnor, a, b)
	c.MustGate("not", circuit.Not, a)
	c.MustGate("buf", circuit.Buf, b)
	one := c.AddConst("one", true)
	zero := c.AddConst("zero", false)
	g := c.MustGate("mix", circuit.And, one, a)
	h := c.MustGate("mix2", circuit.Or, zero, g)
	c.MarkOutput(h)
	checkGateEquivTruth(t, c)
}

// Property: Tseitin encoding of random circuits agrees with simulation.
func TestQuickTseitinAgreesWithSim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 4, 4+rng.Intn(18))
		ins := c.Inputs()
		s := sat.New()
		e := NewEncoder(s)
		lits := e.EncodeCircuit(c)
		for trial := 0; trial < 6; trial++ {
			s2 := sat.New()
			e2 := NewEncoder(s2)
			lits2 := e2.EncodeCircuitWith(c, nil)
			assign := map[int]bool{}
			for _, id := range ins {
				v := rng.Intn(2) == 1
				assign[id] = v
				e2.Fix(lits2[id], v)
			}
			if s2.Solve() != sat.Sat {
				return false
			}
			want := c.Eval(assign)
			for _, o := range c.Outputs {
				if s2.LitTrue(lits2[o]) != want[o] {
					return false
				}
			}
		}
		_ = lits
		_ = s
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomCircuit(rng *rand.Rand, nIn, nGates int) *circuit.Circuit {
	c := circuit.New("rand")
	ids := make([]int, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		ids = append(ids, c.AddInput(""))
	}
	types := []circuit.GateType{
		circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf,
	}
	for i := 0; i < nGates; i++ {
		gt := types[rng.Intn(len(types))]
		n := 1
		if gt != circuit.Not && gt != circuit.Buf {
			n = 2 + rng.Intn(2)
		}
		fanins := make([]int, n)
		for j := range fanins {
			fanins[j] = ids[rng.Intn(len(ids))]
		}
		ids = append(ids, c.MustGate("", gt, fanins...))
	}
	c.MarkOutput(ids[len(ids)-1])
	return c
}

func TestSharedInputsAcrossCopies(t *testing.T) {
	// Encode the same XOR circuit twice sharing inputs: outputs must be
	// provably equal (miter UNSAT).
	c := circuit.New("x")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.MustGate("g", circuit.Xor, a, b)
	c.MarkOutput(g)

	s := sat.New()
	e := NewEncoder(s)
	lits1 := e.EncodeCircuit(c)
	shared := map[int]sat.Lit{a: lits1[a], b: lits1[b]}
	lits2 := e.EncodeCircuitWith(c, shared)
	// Miter: outputs differ.
	d := e.Xor(lits1[g], lits2[g])
	s.AddClause(d)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("identical copies with shared inputs: got %v, want UNSAT", got)
	}
}

func TestMiterDetectsDifference(t *testing.T) {
	// AND vs OR of the same inputs must be distinguishable.
	c1 := circuit.New("and")
	a1 := c1.AddInput("a")
	b1 := c1.AddInput("b")
	g1 := c1.MustGate("g", circuit.And, a1, b1)
	c1.MarkOutput(g1)
	c2 := circuit.New("or")
	a2 := c2.AddInput("a")
	b2 := c2.AddInput("b")
	g2 := c2.MustGate("g", circuit.Or, a2, b2)
	c2.MarkOutput(g2)

	s := sat.New()
	e := NewEncoder(s)
	lits1 := e.EncodeCircuit(c1)
	lits2 := e.EncodeCircuitWith(c2, map[int]sat.Lit{a2: lits1[a1], b2: lits1[b1]})
	s.AddClause(e.Xor(lits1[g1], lits2[g2]))
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("AND vs OR miter: got %v, want SAT", got)
	}
	// The distinguishing input must actually distinguish: a != b.
	if s.LitTrue(lits1[a1]) == s.LitTrue(lits1[b1]) {
		t.Error("model is not a distinguishing input for AND vs OR")
	}
}

func countTrue(s *sat.Solver, lits []sat.Lit) int {
	n := 0
	for _, l := range lits {
		if s.LitTrue(l) {
			n++
		}
	}
	return n
}

func TestExactlyKBothEncodings(t *testing.T) {
	for _, enc := range []CardEncoding{AdderTree, SeqCounter} {
		for n := 1; n <= 7; n++ {
			for k := 0; k <= n; k++ {
				s := sat.New()
				e := NewEncoder(s)
				lits := make([]sat.Lit, n)
				for i := range lits {
					lits[i] = e.NewLit()
				}
				e.ExactlyK(lits, k, enc)
				if got := s.Solve(); got != sat.Sat {
					t.Fatalf("%v n=%d k=%d: got %v, want SAT", enc, n, k, got)
				}
				if got := countTrue(s, lits); got != k {
					t.Fatalf("%v n=%d k=%d: model has %d true", enc, n, k, got)
				}
				// Block this model and count all solutions = C(n,k).
				want := binom(n, k)
				count := 0
				for s.Solve() == sat.Sat {
					count++
					if count > want {
						break
					}
					block := make([]sat.Lit, n)
					for i, l := range lits {
						if s.LitTrue(l) {
							block[i] = l.Neg()
						} else {
							block[i] = l
						}
					}
					s.AddClause(block...)
				}
				if count != want {
					t.Fatalf("%v n=%d k=%d: %d solutions, want %d", enc, n, k, count, want)
				}
			}
		}
	}
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestExactlyKInfeasible(t *testing.T) {
	s := sat.New()
	e := NewEncoder(s)
	lits := []sat.Lit{e.NewLit(), e.NewLit()}
	e.ExactlyK(lits, 5, AdderTree)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("k > n: got %v, want UNSAT", got)
	}
}

func TestHammingEq(t *testing.T) {
	for _, enc := range []CardEncoding{AdderTree, SeqCounter} {
		const n = 6
		for k := 0; k <= n; k++ {
			s := sat.New()
			e := NewEncoder(s)
			xs := make([]sat.Lit, n)
			ys := make([]sat.Lit, n)
			for i := range xs {
				xs[i] = e.NewLit()
				ys[i] = e.NewLit()
			}
			e.HammingEq(xs, ys, k, enc)
			if got := s.Solve(); got != sat.Sat {
				t.Fatalf("%v k=%d: got %v", enc, k, got)
			}
			hd := 0
			for i := range xs {
				if s.LitTrue(xs[i]) != s.LitTrue(ys[i]) {
					hd++
				}
			}
			if hd != k {
				t.Fatalf("%v: model HD = %d, want %d", enc, hd, k)
			}
		}
	}
}

// Property: both cardinality encodings accept/reject the same assignments.
func TestQuickEncodingsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		k := rng.Intn(n + 1)
		values := make([]bool, n)
		cnt := 0
		for i := range values {
			values[i] = rng.Intn(2) == 1
			if values[i] {
				cnt++
			}
		}
		results := [2]sat.Status{}
		for ei, enc := range []CardEncoding{AdderTree, SeqCounter} {
			s := sat.New()
			e := NewEncoder(s)
			lits := make([]sat.Lit, n)
			for i := range lits {
				lits[i] = e.NewLit()
				e.Fix(lits[i], values[i])
			}
			e.ExactlyK(lits, k, enc)
			results[ei] = s.Solve()
		}
		want := sat.Unsat
		if cnt == k {
			want = sat.Sat
		}
		return results[0] == want && results[1] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPopcountBinary(t *testing.T) {
	const n = 5
	for p := 0; p < 1<<n; p++ {
		s := sat.New()
		e := NewEncoder(s)
		lits := make([]sat.Lit, n)
		cnt := 0
		for i := range lits {
			lits[i] = e.NewLit()
			v := p&(1<<uint(i)) != 0
			e.Fix(lits[i], v)
			if v {
				cnt++
			}
		}
		bits := e.Popcount(lits)
		if s.Solve() != sat.Sat {
			t.Fatalf("popcount base encoding unsat")
		}
		got := 0
		for i, b := range bits {
			if s.LitTrue(b) {
				got |= 1 << uint(i)
			}
		}
		if got != cnt {
			t.Fatalf("pattern %b: popcount = %d, want %d", p, got, cnt)
		}
	}
}

func TestIte(t *testing.T) {
	for p := 0; p < 8; p++ {
		s := sat.New()
		e := NewEncoder(s)
		c, tt, ff := e.NewLit(), e.NewLit(), e.NewLit()
		z := e.Ite(c, tt, ff)
		cv, tv, fv := p&1 == 1, p&2 == 2, p&4 == 4
		e.Fix(c, cv)
		e.Fix(tt, tv)
		e.Fix(ff, fv)
		if s.Solve() != sat.Sat {
			t.Fatal("ite unsat")
		}
		want := fv
		if cv {
			want = tv
		}
		if s.LitTrue(z) != want {
			t.Fatalf("ite(%v,%v,%v) = %v, want %v", cv, tv, fv, s.LitTrue(z), want)
		}
	}
}

func TestEqualVecAndNotEqual(t *testing.T) {
	s := sat.New()
	e := NewEncoder(s)
	as := []sat.Lit{e.NewLit(), e.NewLit()}
	bs := []sat.Lit{e.NewLit(), e.NewLit()}
	e.EqualVec(as, bs)
	e.NotEqual(as, bs)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("equal and not-equal: got %v, want UNSAT", got)
	}
}

func TestEncodedOutputsHelper(t *testing.T) {
	c := circuit.New("h")
	a := c.AddInput("a")
	g := c.MustGate("g", circuit.Not, a)
	c.MarkOutput(g)
	s := sat.New()
	e := NewEncoder(s)
	lits := e.EncodeCircuit(c)
	outs := EncodedOutputs(c, lits)
	if len(outs) != 1 || outs[0] != lits[g] {
		t.Error("EncodedOutputs wrong")
	}
	ins := InputLits(c.Inputs(), lits)
	if len(ins) != 1 || ins[0] != lits[a] {
		t.Error("InputLits wrong")
	}
}

// keyedCircuit builds a circuit over primary inputs a..d and key inputs
// k0..k2 with every gate type on both sides of the key fanout, including
// three-input Xor and Xnor gates and an output outside the fanout.
func keyedCircuit() *circuit.Circuit {
	c := circuit.New("keyed")
	a, b, cc, d := c.AddInput("a"), c.AddInput("b"), c.AddInput("c"), c.AddInput("d")
	k0, k1, k2 := c.AddKeyInput("k0"), c.AddKeyInput("k1"), c.AddKeyInput("k2")
	one := c.AddConst("one", true)
	g1 := c.MustGate("g1", circuit.And, a, b, cc)
	g2 := c.MustGate("g2", circuit.Xor, a, b, d)
	g3 := c.MustGate("g3", circuit.Xnor, g1, k0, d)
	g4 := c.MustGate("g4", circuit.Nor, g2, cc)
	g5 := c.MustGate("g5", circuit.Or, g3, k1, g4)
	g6 := c.MustGate("g6", circuit.Nand, g4, a, one)
	g7 := c.MustGate("g7", circuit.Xor, g5, k2, g6)
	g8 := c.MustGate("g8", circuit.Not, g7)
	g9 := c.MustGate("g9", circuit.Buf, g6)
	g10 := c.MustGate("g10", circuit.Xnor, g2, g9)
	c.MarkOutput(g8)
	c.MarkOutput(g10)
	c.MarkOutput(g3)
	return c
}

// randomKeyedCircuit is randomCircuit whose first nKey inputs are key
// inputs, with its last three gates as outputs.
func randomKeyedCircuit(rng *rand.Rand, nPI, nKey, nGates int) *circuit.Circuit {
	r := randomCircuit(rng, nPI+nKey, nGates)
	c := circuit.New("keyed-rand")
	for id, n := range r.Nodes {
		switch {
		case id < nKey:
			c.AddKeyInput("")
		case n.Type == circuit.Input:
			c.AddInput("")
		default:
			c.MustGate("", n.Type, n.Fanins...)
		}
	}
	for id := c.Len() - 3; id < c.Len(); id++ {
		c.MarkOutput(id)
	}
	return c
}

// keyedCircuits are the circuits the copy and fixed-encoding tests run on.
func keyedCircuits() []*circuit.Circuit {
	cs := []*circuit.Circuit{keyedCircuit()}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 4; i++ {
		cs = append(cs, randomKeyedCircuit(rng, 4, 3, 12+4*i))
	}
	return cs
}

// tseitinVars is the number of fresh variables EncodeCircuitWith gives
// node n when n is a key input or a gate.
func tseitinVars(n *circuit.Node) int {
	switch n.Type {
	case circuit.Input:
		return 1
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		return 1
	case circuit.Xor, circuit.Xnor:
		return len(n.Fanins) - 1
	}
	return 0
}

// bits returns the assumptions setting lits to the bits of v, and the
// matching input assignment of ids.
func bits(v int, ids []int, lits []sat.Lit, assign map[int]bool) []sat.Lit {
	as := make([]sat.Lit, len(ids))
	for i, id := range ids {
		b := v&(1<<uint(i)) != 0
		assign[id] = b
		as[i] = lits[id]
		if !b {
			as[i] = lits[id].Neg()
		}
	}
	return as
}

func TestEncodeCopySharesKeyIndependentLogic(t *testing.T) {
	for _, c := range keyedCircuits() {
		fanout := c.KeyFanout()
		s := sat.New()
		e := NewEncoder(s)
		base := e.EncodeCircuit(c)
		before := s.NumVars()
		cp := e.EncodeCopy(c, base, fanout)
		want, inFanout := 0, 0
		for id := range c.Nodes {
			if !fanout[id] {
				if cp[id] != base[id] {
					t.Fatalf("%s: node %d outside the key fanout has its own literal", c.Name, id)
				}
				continue
			}
			inFanout++
			want += tseitinVars(&c.Nodes[id])
		}
		if got := s.NumVars() - before; got != want {
			t.Fatalf("%s: copy added %d variables, want %d for %d key-fanout nodes", c.Name, got, want, inFanout)
		}
		if inFanout == len(c.Nodes) || inFanout == len(c.KeyInputs()) {
			t.Fatalf("%s: vacuous: %d of %d nodes in the key fanout", c.Name, inFanout, len(c.Nodes))
		}
		// Brute force: every input × key × key assignment gives both
		// copies their simulated values.
		pis, keys := c.PrimaryInputs(), c.KeyInputs()
		for x := 0; x < 1<<len(pis); x++ {
			for k1 := 0; k1 < 1<<len(keys); k1++ {
				for k2 := 0; k2 < 1<<len(keys); k2++ {
					in1, in2 := map[int]bool{}, map[int]bool{}
					as := bits(x, pis, base, in1)
					bits(x, pis, base, in2)
					as = append(as, bits(k1, keys, base, in1)...)
					as = append(as, bits(k2, keys, cp, in2)...)
					if s.SolveAssuming(as) != sat.Sat {
						t.Fatalf("%s: x=%b k1=%b k2=%b: unsatisfiable", c.Name, x, k1, k2)
					}
					want1, want2 := c.Eval(in1), c.Eval(in2)
					for id := range c.Nodes {
						if s.LitTrue(base[id]) != want1[id] || s.LitTrue(cp[id]) != want2[id] {
							t.Fatalf("%s: x=%b k1=%b k2=%b: node %d encodes %v/%v, simulates %v/%v", c.Name, x, k1, k2, id,
								s.LitTrue(base[id]), s.LitTrue(cp[id]), want1[id], want2[id])
						}
					}
				}
			}
		}
	}
}

// TestEncodeFixedLeavesTseitinState checks that, on every primary-input
// pattern, EncodeFixed gives each node the literal EncodeCircuitWith
// gives it over constant inputs, with the same variables and the same
// solver counters, and that both solvers then answer every key alike.
func TestEncodeFixedLeavesTseitinState(t *testing.T) {
	for _, c := range keyedCircuits() {
		fanout := c.KeyFanout()
		pis, keys := c.PrimaryInputs(), c.KeyInputs()
		for x := 0; x < 1<<len(pis); x++ {
			encode := func(fixed bool) (*sat.Solver, []sat.Lit) {
				s := sat.New()
				e := NewEncoder(s)
				e.NewLit() // a variable before the pattern, as in a miter
				given := map[int]sat.Lit{}
				for _, k := range keys {
					given[k] = e.NewLit()
				}
				pattern := map[int]bool{}
				for i, pi := range pis {
					pattern[pi] = x&(1<<uint(i)) != 0
					given[pi] = e.ConstLit(pattern[pi])
				}
				if fixed {
					return s, e.EncodeFixed(c, fanout, c.Eval(pattern), given)
				}
				return s, e.EncodeCircuitWith(c, given)
			}
			sA, litsA := encode(false)
			sB, litsB := encode(true)
			for id := range c.Nodes {
				if litsA[id] != litsB[id] {
					t.Fatalf("%s: x=%b: node %d is %v fixed, %v Tseitin", c.Name, x, id, litsB[id], litsA[id])
				}
			}
			if sA.NumVars() != sB.NumVars() || sA.Stats() != sB.Stats() {
				t.Fatalf("%s: x=%b: %d vars %+v fixed, %d vars %+v Tseitin", c.Name, x, sB.NumVars(), sB.Stats(), sA.NumVars(), sA.Stats())
			}
			for k := 0; k < 1<<len(keys); k++ {
				in := map[int]bool{}
				bits(x, pis, litsA, in)
				as := bits(k, keys, litsA, in)
				stA, stB := sA.SolveAssuming(as), sB.SolveAssuming(as)
				if stA != sat.Sat || stB != sat.Sat || sA.Stats() != sB.Stats() {
					t.Fatalf("%s: x=%b k=%b: %v %+v fixed, %v %+v Tseitin", c.Name, x, k, stB, sB.Stats(), stA, sA.Stats())
				}
				want := c.Eval(in)
				for id := range c.Nodes {
					if sB.LitTrue(litsB[id]) != want[id] {
						t.Fatalf("%s: x=%b k=%b: node %d encodes %v, simulates %v", c.Name, x, k, id, sB.LitTrue(litsB[id]), want[id])
					}
				}
			}
		}
	}
}
