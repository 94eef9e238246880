package bench

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// c17 is the smallest ISCAS'85 benchmark: 5 inputs, 2 outputs, 6 NAND gates.
const c17 = `
# c17 ISCAS'85
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func TestParseC17(t *testing.T) {
	c, err := ParseString(c17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Inputs()); got != 5 {
		t.Errorf("inputs = %d, want 5", got)
	}
	if got := len(c.Outputs); got != 2 {
		t.Errorf("outputs = %d, want 2", got)
	}
	if got := c.NumGates(); got != 6 {
		t.Errorf("gates = %d, want 6", got)
	}
	// Spot-check the truth table: G22 = NAND(NAND(G1,G3), NAND(G2, NAND(G3,G6))).
	eval := func(g1, g2, g3, g6, g7 bool) (bool, bool) {
		assign := map[int]bool{}
		for name, v := range map[string]bool{"G1": g1, "G2": g2, "G3": g3, "G6": g6, "G7": g7} {
			id, ok := c.NodeByName(name)
			if !ok {
				t.Fatalf("missing input %s", name)
			}
			assign[id] = v
		}
		outs := c.EvalOutputs(assign)
		return outs[0], outs[1]
	}
	nand := func(a, b bool) bool { return !(a && b) }
	for p := 0; p < 32; p++ {
		g1, g2, g3, g6, g7 := p&1 == 1, p&2 == 2, p&4 == 4, p&8 == 8, p&16 == 16
		g10 := nand(g1, g3)
		g11 := nand(g3, g6)
		g16 := nand(g2, g11)
		g19 := nand(g11, g7)
		want22, want23 := nand(g10, g16), nand(g16, g19)
		got22, got23 := eval(g1, g2, g3, g6, g7)
		if got22 != want22 || got23 != want23 {
			t.Errorf("pattern %05b: got (%v,%v), want (%v,%v)", p, got22, got23, want22, want23)
		}
	}
}

func TestKeyInputDetection(t *testing.T) {
	src := `
INPUT(a)
INPUT(keyinput0)
INPUT(KEYINPUT1)
OUTPUT(y)
y = XOR(a, keyinput0)
`
	// KEYINPUT1 is unused but still a key input.
	c, err := ParseString(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.KeyInputs()); got != 2 {
		t.Errorf("key inputs = %d, want 2", got)
	}
	if got := len(c.PrimaryInputs()); got != 1 {
		t.Errorf("primary inputs = %d, want 1", got)
	}
}

func TestOutOfOrderGates(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(g1, g2)
g2 = NOT(b)
g1 = NOT(a)
`
	c, err := ParseString(src, "ooo")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	a, _ := c.NodeByName("a")
	b, _ := c.NodeByName("b")
	if got := c.EvalOutputs(map[int]bool{a: false, b: false})[0]; !got {
		t.Error("NOT(a) AND NOT(b) with a=b=0 should be 1")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"cycle", "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n"},
		{"undefined", "INPUT(a)\nOUTPUT(y)\ny = AND(a, nope)\n"},
		{"badgate", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"},
		{"redef", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n"},
		{"redefInput", "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n"},
		{"badParen", "INPUT(a\n"},
		{"noAssign", "INPUT(a)\nfoo bar\n"},
		{"emptyFanin", "INPUT(a)\nOUTPUT(y)\ny = AND(a,)\n"},
		{"undefOutput", "INPUT(a)\nOUTPUT(nope)\n"},
		{"badArity", "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n"},
	}
	for _, tc := range cases {
		if _, err := ParseString(tc.src, tc.name); err == nil {
			t.Errorf("%s: error expected, got nil", tc.name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	c1, err := ParseString(c17, "c17")
	if err != nil {
		t.Fatal(err)
	}
	s := WriteString(c1)
	c2, err := ParseString(s, "c17rt")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s)
	}
	if !equivalentBySim(t, c1, c2, 64) {
		t.Error("round trip changed function")
	}
}

func TestRoundTripWithConstants(t *testing.T) {
	c := circuit.New("k")
	a := c.AddInput("a")
	one := c.AddConst("one", true)
	zero := c.AddConst("zero", false)
	g := c.MustGate("g", And, a, one)
	h := c.MustGate("h", Or, g, zero)
	c.MarkOutput(h)
	s := WriteString(c)
	c2, err := ParseString(s, "k2")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s)
	}
	a2, _ := c2.NodeByName("a")
	for _, v := range []bool{false, true} {
		if got := c2.EvalOutputs(map[int]bool{a2: v})[0]; got != v {
			t.Errorf("const round trip: f(%v) = %v, want %v", v, got, v)
		}
	}
}

// And/Or aliases so the test above reads naturally.
const (
	And = circuit.And
	Or  = circuit.Or
)

// equivalentBySim compares two circuits with identical input/output names
// on n random patterns.
func equivalentBySim(t *testing.T, c1, c2 *circuit.Circuit, n int) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < n; trial++ {
		a1 := map[int]bool{}
		a2 := map[int]bool{}
		for _, id := range c1.Inputs() {
			name := c1.Nodes[id].Name
			id2, ok := c2.NodeByName(name)
			if !ok {
				t.Fatalf("input %s missing from second circuit", name)
			}
			v := rng.Intn(2) == 1
			a1[id] = v
			a2[id2] = v
		}
		o1 := c1.EvalOutputs(a1)
		o2 := c2.EvalOutputs(a2)
		if len(o1) != len(o2) {
			t.Fatalf("output arity mismatch: %d vs %d", len(o1), len(o2))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				return false
			}
		}
	}
	return true
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "# header\n\n  # indented comment\nINPUT(a)\n\nOUTPUT(y)\ny = NOT(a)\n"
	if _, err := ParseString(src, "c"); err != nil {
		t.Fatal(err)
	}
}

func TestBuffAliases(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUF(a)\nz = INV(a)\n"
	c, err := ParseString(src, "alias")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.NodeByName("a")
	outs := c.EvalOutputs(map[int]bool{a: true})
	if !outs[0] || outs[1] {
		t.Errorf("BUF/INV aliases wrong: %v", outs)
	}
}

func TestWritePreservesKeyInputs(t *testing.T) {
	src := "INPUT(x)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XNOR(x, keyinput0)\n"
	c, err := ParseString(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseString(WriteString(c), "k2")
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.KeyInputs()) != 1 {
		t.Error("key input lost in round trip")
	}
}

func TestSortedSignalNames(t *testing.T) {
	c, _ := ParseString(c17, "c17")
	names := SortedSignalNames(c)
	if len(names) != c.Len() {
		t.Fatalf("got %d names, want %d", len(names), c.Len())
	}
	for i := 1; i < len(names); i++ {
		if strings.Compare(names[i-1], names[i]) > 0 {
			t.Fatal("names not sorted")
		}
	}
}

// FuzzParse: no input makes Parse panic, and an accepted netlist
// written back by Write parses again and writes the same bytes — the
// form every netlist `attack` and the daemon's POST /jobs receive is
// normalized to. Plain go test replays the corpus under testdata/fuzz.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src, "fuzz")
		if err != nil {
			return
		}
		out := WriteString(c)
		back, err := ParseString(out, "fuzz")
		if err != nil {
			t.Fatalf("ParseString(%q) writes %q, which does not parse: %v", src, out, err)
		}
		if again := WriteString(back); again != out {
			t.Fatalf("ParseString(%q) writes %q, which parses and writes %q", src, out, again)
		}
	})
}
