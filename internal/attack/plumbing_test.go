package attack_test

import (
	"fmt"
	"testing"

	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// TestAddIOConstraint checks the constraint against simulation on a
// keyed circuit with outputs inside and outside the key fanout: after
// constraining one key copy to a pattern's response, exactly the keys
// that reproduce that response stay satisfiable, and a response that no
// key can give on a key-independent output makes the formula UNSAT.
func TestAddIOConstraint(t *testing.T) {
	c := circuit.New("io")
	a, b, d := c.AddInput("a"), c.AddInput("b"), c.AddInput("d")
	k0, k1 := c.AddKeyInput("k0"), c.AddKeyInput("k1")
	c.MarkOutput(c.MustGate("o0", circuit.And, a, b))
	c.MarkOutput(c.MustGate("o1", circuit.Xor, c.MustGate("ad", circuit.Or, a, d), k0))
	c.MarkOutput(c.MustGate("o2", circuit.Nand, k1, b, d))
	pis, keys := c.PrimaryInputs(), c.KeyInputs()
	fanout := c.KeyFanout()
	outIdx := []int{0, 1, 2}
	eval := func(x, k int) []bool {
		in := map[int]bool{}
		for i, id := range pis {
			in[id] = x&(1<<i) != 0
		}
		for i, id := range keys {
			in[id] = k&(1<<i) != 0
		}
		return c.EvalOutputs(in)
	}
	for x := 0; x < 1<<len(pis); x++ {
		xd := map[string]bool{}
		for i, id := range pis {
			xd[c.Nodes[id].Name] = x&(1<<i) != 0
		}
		for k := 0; k < 1<<len(keys); k++ {
			yd := eval(x, k)
			s := sat.New()
			e := cnf.NewEncoder(s)
			kl := []sat.Lit{e.NewLit(), e.NewLit()}
			attack.AddIOConstraint(e, c, fanout, xd, yd, outIdx, attack.KeyGiven(keys, kl))
			for k2 := 0; k2 < 1<<len(keys); k2++ {
				as := []sat.Lit{attack.LitWithValue(kl[0], k2&1 != 0), attack.LitWithValue(kl[1], k2&2 != 0)}
				want := fmt.Sprint(eval(x, k2)) == fmt.Sprint(yd)
				if got := s.SolveAssuming(as) == sat.Sat; got != want {
					t.Fatalf("x=%b response of key %b: key %b satisfiable %v, want %v", x, k, k2, got, want)
				}
			}
			yd[0] = !yd[0] // o0 = a AND b: no key can flip it
			s = sat.New()
			e = cnf.NewEncoder(s)
			kl = []sat.Lit{e.NewLit(), e.NewLit()}
			attack.AddIOConstraint(e, c, fanout, xd, yd, outIdx, attack.KeyGiven(keys, kl))
			if s.Solve() != sat.Unsat {
				t.Fatalf("x=%b: a key-independent output contradicting the response is satisfiable", x)
			}
		}
	}
}
