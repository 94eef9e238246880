package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildFig2a constructs the paper's running example (Fig. 2a):
// y = (a AND b) OR (b AND c) OR (c AND a) OR d.
func buildFig2a(t testing.TB) (*Circuit, [4]int, int) {
	t.Helper()
	c := New("fig2a")
	a := c.AddInput("a")
	b := c.AddInput("b")
	cc := c.AddInput("c")
	d := c.AddInput("d")
	ab := c.MustGate("ab", And, a, b)
	bc := c.MustGate("bc", And, b, cc)
	ca := c.MustGate("ca", And, cc, a)
	y := c.MustGate("y", Or, ab, bc, ca, d)
	c.MarkOutput(y)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return c, [4]int{a, b, cc, d}, y
}

func TestFig2aTruthTable(t *testing.T) {
	c, in, y := buildFig2a(t)
	for p := 0; p < 16; p++ {
		a, b, cc, d := p&1 == 1, p&2 == 2, p&4 == 4, p&8 == 8
		want := (a && b) || (b && cc) || (cc && a) || d
		got := c.Eval(map[int]bool{in[0]: a, in[1]: b, in[2]: cc, in[3]: d})[y]
		if got != want {
			t.Errorf("pattern %04b: got %v, want %v", p, got, want)
		}
	}
}

func TestGateSemantics(t *testing.T) {
	cases := []struct {
		t  GateType
		n  int
		fn func(vs []bool) bool
	}{
		{And, 3, func(vs []bool) bool { return vs[0] && vs[1] && vs[2] }},
		{Nand, 2, func(vs []bool) bool { return !(vs[0] && vs[1]) }},
		{Or, 3, func(vs []bool) bool { return vs[0] || vs[1] || vs[2] }},
		{Nor, 2, func(vs []bool) bool { return !(vs[0] || vs[1]) }},
		{Xor, 2, func(vs []bool) bool { return vs[0] != vs[1] }},
		{Xnor, 2, func(vs []bool) bool { return vs[0] == vs[1] }},
		{Xor, 3, func(vs []bool) bool { return (vs[0] != vs[1]) != vs[2] }},
		{Buf, 1, func(vs []bool) bool { return vs[0] }},
		{Not, 1, func(vs []bool) bool { return !vs[0] }},
	}
	for _, tc := range cases {
		c := New("g")
		ins := make([]int, tc.n)
		for i := range ins {
			ins[i] = c.AddInput(string(rune('a' + i)))
		}
		g := c.MustGate("g", tc.t, ins...)
		c.MarkOutput(g)
		for p := 0; p < 1<<tc.n; p++ {
			assign := map[int]bool{}
			vs := make([]bool, tc.n)
			for i := 0; i < tc.n; i++ {
				vs[i] = p&(1<<i) != 0
				assign[ins[i]] = vs[i]
			}
			if got, want := c.Eval(assign)[g], tc.fn(vs); got != want {
				t.Errorf("%v/%d pattern %b: got %v want %v", tc.t, tc.n, p, got, want)
			}
		}
	}
}

func TestConstants(t *testing.T) {
	c := New("k")
	z := c.AddConst("zero", false)
	o := c.AddConst("one", true)
	g := c.MustGate("g", And, o, o)
	h := c.MustGate("h", Or, z, g)
	c.MarkOutput(h)
	vals := c.Eval(nil)
	if vals[z] || !vals[o] || !vals[g] || !vals[h] {
		t.Errorf("constant propagation wrong: %v", vals)
	}
}

func TestAddGateErrors(t *testing.T) {
	c := New("e")
	a := c.AddInput("a")
	if _, err := c.AddGate("a", Not, a); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := c.AddGate("g1", Not, a, a); err == nil {
		t.Error("NOT with 2 fanins accepted")
	}
	if _, err := c.AddGate("g2", And, a); err == nil {
		t.Error("AND with 1 fanin accepted")
	}
	if _, err := c.AddGate("g3", And, a, 99); err == nil {
		t.Error("out-of-range fanin accepted")
	}
	if _, err := c.AddGate("g4", And, a, -1); err == nil {
		t.Error("negative fanin accepted")
	}
}

func TestSupportAndTFC(t *testing.T) {
	c, in, y := buildFig2a(t)
	sup := c.Support(y)
	if len(sup) != 4 {
		t.Fatalf("support of y: got %v, want all 4 inputs", sup)
	}
	for i, s := range sup {
		if s != in[i] {
			t.Errorf("support[%d] = %d, want %d", i, s, in[i])
		}
	}
	// Support of the ab gate is {a, b} only.
	ab, _ := c.NodeByName("ab")
	sup = c.Support(ab)
	if len(sup) != 2 || sup[0] != in[0] || sup[1] != in[1] {
		t.Errorf("support of ab: got %v, want [a b]", sup)
	}
	tfc := c.TFC(y)
	if len(tfc) != c.Len() {
		t.Errorf("TFC(y) = %v, want every node", tfc)
	}
}

func TestConeExtraction(t *testing.T) {
	c, in, _ := buildFig2a(t)
	ab, _ := c.NodeByName("ab")
	cone, im := c.Cone(ab)
	if err := cone.Validate(); err != nil {
		t.Fatalf("cone invalid: %v", err)
	}
	if len(cone.Outputs) != 1 {
		t.Fatalf("cone outputs = %v", cone.Outputs)
	}
	if got := len(cone.Inputs()); got != 2 {
		t.Fatalf("cone inputs = %d, want 2", got)
	}
	// inputMap points back at a and b.
	back := map[int]bool{}
	for _, orig := range im {
		back[orig] = true
	}
	if !back[in[0]] || !back[in[1]] {
		t.Errorf("inputMap = %v, want to cover a and b", im)
	}
	// Cone computes a AND b.
	ci := cone.Inputs()
	for p := 0; p < 4; p++ {
		va, vb := p&1 == 1, p&2 == 2
		got := cone.EvalOutputs(map[int]bool{ci[0]: va, ci[1]: vb})[0]
		if got != (va && vb) {
			t.Errorf("cone(%v,%v) = %v", va, vb, got)
		}
	}
}

func TestConePreservesKeyFlag(t *testing.T) {
	c := New("k")
	x := c.AddInput("x")
	k := c.AddKeyInput("keyinput0")
	g := c.MustGate("g", Xor, x, k)
	c.MarkOutput(g)
	cone, _ := c.Cone(g)
	if got := len(cone.KeyInputs()); got != 1 {
		t.Errorf("cone key inputs = %d, want 1", got)
	}
	if got := len(cone.PrimaryInputs()); got != 1 {
		t.Errorf("cone primary inputs = %d, want 1", got)
	}
}

func TestSimulateBitParallelMatchesEval(t *testing.T) {
	c, in, y := buildFig2a(t)
	// 16 patterns in one word.
	vals := make([]uint64, c.Len())
	for p := 0; p < 16; p++ {
		for i := 0; i < 4; i++ {
			if p&(1<<i) != 0 {
				vals[in[i]] |= 1 << uint(p)
			}
		}
	}
	c.Simulate(vals)
	for p := 0; p < 16; p++ {
		assign := map[int]bool{}
		for i := 0; i < 4; i++ {
			assign[in[i]] = p&(1<<i) != 0
		}
		want := c.Eval(assign)[y]
		got := vals[y]&(1<<uint(p)) != 0
		if got != want {
			t.Errorf("pattern %d: parallel %v, scalar %v", p, got, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	c, _, _ := buildFig2a(t)
	cp := c.Clone()
	cp.Nodes[4].Fanins[0] = 3
	if c.Nodes[4].Fanins[0] == 3 {
		t.Error("Clone shares fanin slices")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("original damaged by clone mutation: %v", err)
	}
	if _, ok := cp.NodeByName("y"); !ok {
		t.Error("clone lost name table")
	}
}

func TestLevelsAndDepth(t *testing.T) {
	c, _, _ := buildFig2a(t)
	if d := c.Depth(); d != 2 {
		t.Errorf("depth = %d, want 2", d)
	}
	lv := c.Levels()
	for _, in := range c.Inputs() {
		if lv[in] != 0 {
			t.Errorf("input level = %d", lv[in])
		}
	}
}

func TestFanoutCounts(t *testing.T) {
	c, in, _ := buildFig2a(t)
	fo := c.FanoutCounts()
	if fo[in[0]] != 2 { // a feeds ab and ca
		t.Errorf("fanout(a) = %d, want 2", fo[in[0]])
	}
	if fo[in[3]] != 1 { // d feeds y only
		t.Errorf("fanout(d) = %d, want 1", fo[in[3]])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c, _, _ := buildFig2a(t)
	c.Nodes[4].Fanins[0] = 7 // forward reference
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted forward reference")
	}
}

// randomCircuit builds a random layered circuit for property tests.
func randomCircuit(rng *rand.Rand, nIn, nGates int) *Circuit {
	c := New("rand")
	ids := make([]int, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		ids = append(ids, c.AddInput(""))
	}
	types := []GateType{And, Nand, Or, Nor, Xor, Xnor, Not, Buf}
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		var fanins []int
		n := 1
		if t != Not && t != Buf {
			n = 2 + rng.Intn(2)
		}
		for j := 0; j < n; j++ {
			fanins = append(fanins, ids[rng.Intn(len(ids))])
		}
		ids = append(ids, c.MustGate("", t, fanins...))
	}
	c.MarkOutput(ids[len(ids)-1])
	return c
}

// Property: bit-parallel simulation agrees with scalar evaluation on random
// circuits and random patterns.
func TestQuickSimulateAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 3+r.Intn(5), 5+r.Intn(20))
		ins := c.Inputs()
		vals := make([]uint64, c.Len())
		patterns := make([]map[int]bool, 8)
		for p := range patterns {
			patterns[p] = map[int]bool{}
			for _, in := range ins {
				v := r.Intn(2) == 1
				patterns[p][in] = v
				if v {
					vals[in] |= 1 << uint(p)
				}
			}
		}
		c.Simulate(vals)
		out := c.Outputs[0]
		for p := range patterns {
			if (vals[out]&(1<<uint(p)) != 0) != c.Eval(patterns[p])[out] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Cone extraction preserves the node function.
func TestQuickConePreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 4, 5+r.Intn(15))
		root := c.Outputs[0]
		cone, im := c.Cone(root)
		coneIns := cone.Inputs()
		for trial := 0; trial < 16; trial++ {
			origAssign := map[int]bool{}
			coneAssign := map[int]bool{}
			for _, ci := range coneIns {
				v := r.Intn(2) == 1
				coneAssign[ci] = v
				origAssign[im[ci]] = v
			}
			// Inputs outside the cone get arbitrary values.
			for _, in := range c.Inputs() {
				if _, ok := origAssign[in]; !ok {
					origAssign[in] = r.Intn(2) == 1
				}
			}
			if c.Eval(origAssign)[root] != cone.EvalOutputs(coneAssign)[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: TFC equals a reference depth-first search, and SimulateNodes
// over a node's TFC computes the node's Simulate word while leaving every
// entry outside the TFC untouched.
func TestQuickTFCAndSimulateNodes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCircuit(r, 2+r.Intn(6), 1+r.Intn(30))
		root := r.Intn(c.Len())
		seen := map[int]bool{}
		stack := []int{root}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !seen[v] {
				seen[v] = true
				stack = append(stack, c.Nodes[v].Fanins...)
			}
		}
		tfc := c.TFC(root)
		if len(tfc) != len(seen) {
			return false
		}
		for i, v := range tfc {
			if !seen[v] || (i > 0 && tfc[i-1] >= v) {
				return false
			}
		}
		full := make([]uint64, c.Len())
		part := make([]uint64, c.Len())
		const canary = 0xdeadbeef
		for i := range part {
			part[i] = canary
		}
		for _, in := range c.Inputs() {
			full[in] = r.Uint64()
			if seen[in] {
				part[in] = full[in]
			}
		}
		c.Simulate(full)
		c.SimulateNodes(tfc, part)
		for id := range part {
			if seen[id] && part[id] != full[id] || !seen[id] && part[id] != canary {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringSmoke(t *testing.T) {
	c, _, _ := buildFig2a(t)
	s := c.String()
	if len(s) == 0 {
		t.Error("empty String()")
	}
}
