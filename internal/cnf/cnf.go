// Package cnf translates circuits and arithmetic side-constraints into CNF
// over an incremental SAT solver (internal/sat). It provides:
//
//   - Tseitin encoding of gate-level circuits, with sharing so the same
//     input variables can feed several circuit copies (the basis of miters,
//     the SAT attack, and the FALL functional analyses);
//   - cardinality constraints ("exactly k of these literals are true") in
//     two encodings, an adder-tree popcount and the Sinz sequential
//     counter, used for the Hamming-distance constraints of the
//     SlidingWindow and Distance2H analyses (paper §IV-B);
//   - small helpers (fresh gates, equality, difference clauses).
package cnf

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sat"
)

// CardEncoding selects a cardinality-constraint encoding.
type CardEncoding int

// Available cardinality encodings. AdderTree builds a binary popcount with
// ripple-carry adders and compares against the constant; SeqCounter is the
// Sinz sequential ("commander-free") encoding of at-most-k applied twice.
const (
	AdderTree CardEncoding = iota
	SeqCounter
)

func (e CardEncoding) String() string {
	if e == AdderTree {
		return "adder-tree"
	}
	return "seq-counter"
}

// ParseCardEncoding parses a cardinality-encoding name as accepted by
// the CLIs and campaign plans: "adder"/"adder-tree" or
// "seq"/"seq-counter". The empty string selects AdderTree (the default).
func ParseCardEncoding(s string) (CardEncoding, error) {
	switch s {
	case "", "adder", "adder-tree":
		return AdderTree, nil
	case "seq", "seq-counter":
		return SeqCounter, nil
	}
	return AdderTree, fmt.Errorf("cnf: unknown cardinality encoding %q (want adder or seq)", s)
}

// Encoder owns an engine and allocates auxiliary variables for Tseitin
// encodings built on top of it. Any sat.Engine works — the internal
// solver, an external backend or a memo engine — and the clauses go
// straight to the engine that solves them.
type Encoder struct {
	S sat.Engine

	haveConst bool
	trueLit   sat.Lit
}

// NewEncoder wraps an existing engine.
func NewEncoder(s sat.Engine) *Encoder { return &Encoder{S: s} }

// NewLit allocates a fresh variable and returns its positive literal.
func (e *Encoder) NewLit() sat.Lit { return sat.PosLit(e.S.NewVar()) }

// ConstLit returns a literal that is constrained to the constant v.
func (e *Encoder) ConstLit(v bool) sat.Lit {
	if !e.haveConst {
		e.trueLit = e.NewLit()
		e.S.AddClause(e.trueLit)
		e.haveConst = true
	}
	if v {
		return e.trueLit
	}
	return e.trueLit.Neg()
}

// Fix adds a unit clause asserting literal l equals v.
func (e *Encoder) Fix(l sat.Lit, v bool) {
	if v {
		e.S.AddClause(l)
	} else {
		e.S.AddClause(l.Neg())
	}
}

// And returns a literal equivalent to the conjunction of lits.
func (e *Encoder) And(lits ...sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return e.ConstLit(true)
	case 1:
		return lits[0]
	}
	z := e.NewLit()
	long := make([]sat.Lit, 0, len(lits)+1)
	long = append(long, z)
	for _, a := range lits {
		e.S.AddClause(z.Neg(), a)
		long = append(long, a.Neg())
	}
	e.S.AddClause(long...)
	return z
}

// Or returns a literal equivalent to the disjunction of lits.
func (e *Encoder) Or(lits ...sat.Lit) sat.Lit {
	neg := make([]sat.Lit, len(lits))
	for i, l := range lits {
		neg[i] = l.Neg()
	}
	return e.And(neg...).Neg()
}

// Xor returns a literal equivalent to a XOR b.
func (e *Encoder) Xor(a, b sat.Lit) sat.Lit {
	z := e.NewLit()
	e.S.AddClause(z.Neg(), a, b)
	e.S.AddClause(z.Neg(), a.Neg(), b.Neg())
	e.S.AddClause(z, a.Neg(), b)
	e.S.AddClause(z, a, b.Neg())
	return z
}

// XorMany folds Xor over lits (at least one literal required).
func (e *Encoder) XorMany(lits ...sat.Lit) sat.Lit {
	if len(lits) == 0 {
		panic("cnf: XorMany of zero literals")
	}
	z := lits[0]
	for _, l := range lits[1:] {
		z = e.Xor(z, l)
	}
	return z
}

// Ite returns a literal equivalent to "if c then t else f".
func (e *Encoder) Ite(c, t, f sat.Lit) sat.Lit {
	z := e.NewLit()
	e.S.AddClause(c.Neg(), t.Neg(), z)
	e.S.AddClause(c.Neg(), t, z.Neg())
	e.S.AddClause(c, f.Neg(), z)
	e.S.AddClause(c, f, z.Neg())
	return z
}

// EncodeCircuit Tseitin-encodes circuit c with fresh variables for every
// input and returns one literal per node (indexed by node id) giving that
// node's value.
func (e *Encoder) EncodeCircuit(c *circuit.Circuit) []sat.Lit {
	return e.EncodeCircuitWith(c, nil)
}

// EncodeCircuitWith Tseitin-encodes circuit c. given may map input node
// ids to pre-existing literals so that several circuit copies can share
// inputs (or key variables); inputs absent from given receive fresh
// variables. The result maps every node id to its literal.
func (e *Encoder) EncodeCircuitWith(c *circuit.Circuit, given map[int]sat.Lit) []sat.Lit {
	lits := make([]sat.Lit, c.Len())
	for id := range c.Nodes {
		lits[id] = e.node(&c.Nodes[id], id, given, lits)
	}
	return lits
}

// EncodeCopy encodes a further copy of c over base, the node literals of
// an earlier copy on this encoder. Every node outside fanout (a
// circuit.KeyFanout marking) reuses its base literal: it is a function of
// the primary inputs, which the copies share. Every key input gets a
// fresh variable, and every other node in fanout the clauses
// EncodeCircuitWith gives it.
func (e *Encoder) EncodeCopy(c *circuit.Circuit, base []sat.Lit, fanout []bool) []sat.Lit {
	lits := make([]sat.Lit, c.Len())
	for id := range c.Nodes {
		if fanout[id] {
			lits[id] = e.node(&c.Nodes[id], id, nil, lits)
		} else {
			lits[id] = base[id]
		}
	}
	return lits
}

// EncodeFixed encodes c with every node outside fanout (a
// circuit.KeyFanout marking) fixed at its value in vals, a simulation of
// c on the primary inputs' values, which given must map to constant
// literals. Such a gate gets exactly the literal and fresh variables
// EncodeCircuitWith would give it, but each variable is fixed by one unit
// clause instead of its Tseitin clauses; nodes in fanout and all inputs
// are encoded as EncodeCircuitWith encodes them, in the same node order.
// A solver that simplifies clauses at decision level 0 reduces
// EncodeCircuitWith's clauses to exactly those units, so both leave it in
// the same state.
func (e *Encoder) EncodeFixed(c *circuit.Circuit, fanout []bool, vals []bool, given map[int]sat.Lit) []sat.Lit {
	lits := make([]sat.Lit, c.Len())
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if fanout[id] || n.Type == circuit.Input {
			lits[id] = e.node(n, id, given, lits)
		} else {
			lits[id] = e.fixedGate(n, id, vals, lits)
		}
	}
	return lits
}

// node encodes node id: an input takes its literal in given or a fresh
// variable, and a gate is Tseitin-encoded over its fanins' literals.
func (e *Encoder) node(n *circuit.Node, id int, given map[int]sat.Lit, lits []sat.Lit) sat.Lit {
	switch n.Type {
	case circuit.Input:
		if l, ok := given[id]; ok {
			return l
		}
		return e.NewLit()
	case circuit.Const0:
		return e.ConstLit(false)
	case circuit.Const1:
		return e.ConstLit(true)
	case circuit.Buf:
		return lits[n.Fanins[0]]
	case circuit.Not:
		return lits[n.Fanins[0]].Neg()
	}
	ins := make([]sat.Lit, len(n.Fanins))
	for i, f := range n.Fanins {
		ins[i] = lits[f]
	}
	switch n.Type {
	case circuit.And:
		return e.And(ins...)
	case circuit.Nand:
		return e.And(ins...).Neg()
	case circuit.Or:
		return e.Or(ins...)
	case circuit.Nor:
		return e.Or(ins...).Neg()
	case circuit.Xor:
		return e.XorMany(ins...)
	case circuit.Xnor:
		return e.XorMany(ins...).Neg()
	}
	panic(fmt.Sprintf("cnf: unknown gate type %v", n.Type))
}

// fixedGate returns the literal node would give gate id, over the same
// fresh variables, each fixed by one unit clause to its value under
// vals. An And, Nand, Or or Nor gate of two or more fanins has one
// variable (the And of its fanins, or of their complements), a k-input
// Xor or Xnor has k-1 (the running Xor of its first 2..k fanins), and
// other gates none.
func (e *Encoder) fixedGate(n *circuit.Node, id int, vals []bool, lits []sat.Lit) sat.Lit {
	if len(n.Fanins) < 2 {
		return e.node(n, id, nil, lits)
	}
	switch n.Type {
	case circuit.And, circuit.Nor:
		z := e.NewLit()
		e.Fix(z, vals[id])
		return z
	case circuit.Nand, circuit.Or:
		z := e.NewLit().Neg()
		e.Fix(z, vals[id])
		return z
	case circuit.Xor, circuit.Xnor:
		acc := vals[n.Fanins[0]]
		var z sat.Lit
		for _, f := range n.Fanins[1:] {
			acc = acc != vals[f]
			z = e.NewLit()
			e.Fix(z, acc)
		}
		if n.Type == circuit.Xnor {
			z = z.Neg()
		}
		return z
	}
	return e.node(n, id, nil, lits)
}

// XorPairs returns literals d_i = xs_i XOR ys_i. The slices must have equal
// length.
func (e *Encoder) XorPairs(xs, ys []sat.Lit) []sat.Lit {
	if len(xs) != len(ys) {
		panic("cnf: XorPairs length mismatch")
	}
	ds := make([]sat.Lit, len(xs))
	for i := range xs {
		ds[i] = e.Xor(xs[i], ys[i])
	}
	return ds
}

// NotEqual adds the constraint that the vectors as and bs differ in at
// least one position.
func (e *Encoder) NotEqual(as, bs []sat.Lit) {
	ds := e.XorPairs(as, bs)
	e.S.AddClause(ds...)
}

// EqualVec adds the constraint as_i == bs_i for all i.
func (e *Encoder) EqualVec(as, bs []sat.Lit) {
	if len(as) != len(bs) {
		panic("cnf: EqualVec length mismatch")
	}
	for i := range as {
		e.S.AddClause(as[i].Neg(), bs[i])
		e.S.AddClause(as[i], bs[i].Neg())
	}
}

// ExactlyK constrains exactly k of lits to be true, using the requested
// encoding.
func (e *Encoder) ExactlyK(lits []sat.Lit, k int, enc CardEncoding) {
	n := len(lits)
	if k < 0 || k > n {
		// Unsatisfiable request; add the empty clause.
		e.S.AddClause()
		return
	}
	switch enc {
	case AdderTree:
		bits := e.Popcount(lits)
		e.fixBinary(bits, k)
	case SeqCounter:
		e.AtMostKSeq(lits, k)
		neg := make([]sat.Lit, n)
		for i, l := range lits {
			neg[i] = l.Neg()
		}
		e.AtMostKSeq(neg, n-k)
	default:
		panic("cnf: unknown cardinality encoding")
	}
}

// HammingEq constrains the Hamming distance between vectors xs and ys to
// be exactly k.
func (e *Encoder) HammingEq(xs, ys []sat.Lit, k int, enc CardEncoding) {
	e.ExactlyK(e.XorPairs(xs, ys), k, enc)
}

// Popcount returns the little-endian binary representation (as literals)
// of the number of true literals in lits, built from half/full adders.
func (e *Encoder) Popcount(lits []sat.Lit) []sat.Lit {
	switch len(lits) {
	case 0:
		return nil
	case 1:
		return []sat.Lit{lits[0]}
	}
	mid := len(lits) / 2
	return e.addBinary(e.Popcount(lits[:mid]), e.Popcount(lits[mid:]))
}

// addBinary returns as + bs as little-endian literal vectors via ripple
// carry.
func (e *Encoder) addBinary(as, bs []sat.Lit) []sat.Lit {
	if len(as) < len(bs) {
		as, bs = bs, as
	}
	out := make([]sat.Lit, 0, len(as)+1)
	carry := sat.LitUndef
	for i := range as {
		a := as[i]
		b := sat.LitUndef
		if i < len(bs) {
			b = bs[i]
		}
		switch {
		case b == sat.LitUndef && carry == sat.LitUndef:
			out = append(out, a)
		case b == sat.LitUndef:
			s, c := e.halfAdder(a, carry)
			out = append(out, s)
			carry = c
		case carry == sat.LitUndef:
			s, c := e.halfAdder(a, b)
			out = append(out, s)
			carry = c
		default:
			s, c := e.fullAdder(a, b, carry)
			out = append(out, s)
			carry = c
		}
	}
	if carry != sat.LitUndef {
		out = append(out, carry)
	}
	return out
}

func (e *Encoder) halfAdder(a, b sat.Lit) (sum, carry sat.Lit) {
	return e.Xor(a, b), e.And(a, b)
}

func (e *Encoder) fullAdder(a, b, cin sat.Lit) (sum, carry sat.Lit) {
	axb := e.Xor(a, b)
	sum = e.Xor(axb, cin)
	carry = e.Or(e.And(a, b), e.And(cin, axb))
	return sum, carry
}

// fixBinary constrains the little-endian bit vector to equal constant k.
func (e *Encoder) fixBinary(bits []sat.Lit, k int) {
	for i, b := range bits {
		e.Fix(b, k&(1<<uint(i)) != 0)
	}
	if k>>uint(len(bits)) != 0 {
		e.S.AddClause() // k not representable: unsatisfiable
	}
}

// AtMostKSeq adds the Sinz sequential-counter encoding of "at most k of
// lits are true".
func (e *Encoder) AtMostKSeq(lits []sat.Lit, k int) {
	n := len(lits)
	if k >= n {
		return
	}
	if k == 0 {
		for _, l := range lits {
			e.S.AddClause(l.Neg())
		}
		return
	}
	// r[i][j]: among lits[0..i], at least j+1 are true (one-directional).
	r := make([][]sat.Lit, n)
	for i := range r {
		r[i] = make([]sat.Lit, k)
		for j := range r[i] {
			r[i][j] = e.NewLit()
		}
	}
	e.S.AddClause(lits[0].Neg(), r[0][0])
	for j := 1; j < k; j++ {
		e.S.AddClause(r[0][j].Neg())
	}
	for i := 1; i < n; i++ {
		e.S.AddClause(lits[i].Neg(), r[i][0])
		e.S.AddClause(r[i-1][0].Neg(), r[i][0])
		for j := 1; j < k; j++ {
			e.S.AddClause(lits[i].Neg(), r[i-1][j-1].Neg(), r[i][j])
			e.S.AddClause(r[i-1][j].Neg(), r[i][j])
		}
		e.S.AddClause(lits[i].Neg(), r[i-1][k-1].Neg())
	}
}

// EncodedOutputs returns the literals of circuit outputs given the per-node
// literal map from EncodeCircuit.
func EncodedOutputs(c *circuit.Circuit, lits []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = lits[o]
	}
	return out
}

// InputLits returns the literals of the given node ids (typically inputs)
// from the per-node literal map.
func InputLits(ids []int, lits []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(ids))
	for i, id := range ids {
		out[i] = lits[id]
	}
	return out
}
