// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) with a unique table and memoized ITE, plus the circuit-analysis
// operations the FALL attack needs: unateness checking, cofactors,
// on-set counting and equivalence. It serves as an alternative exact
// engine to the SAT-based analyses (DESIGN.md experiment E9): BDDs excel
// on the small, structured cube-stripper cones the attack isolates, while
// SAT scales to cones whose BDDs blow up. The bypass/BDD trade-off
// analysis of Xu et al. [28] motivates having both. Sharing no code
// with the SAT engines, it is also the independent oracle of the
// solver differential test (internal/sat).
package bdd

import (
	"fmt"
	"math"
)

// Node is a BDD node reference. Terminals are False (0) and True (1).
type Node int32

// Terminal nodes.
const (
	False Node = 0
	True  Node = 1
)

type nodeData struct {
	level   int32 // variable index; terminals use math.MaxInt32
	low, hi Node
}

const terminalLevel = math.MaxInt32

// Manager owns the node pool, unique table and operation caches.
type Manager struct {
	nodes    []nodeData
	unique   map[nodeData]Node
	iteCache map[[3]Node]Node
	nVars    int
	maxNodes int
}

// ErrNodeLimit is returned (via panic/recover inside exported calls) when
// the manager exceeds its node budget, signalling BDD blow-up so callers
// can fall back to SAT.
var ErrNodeLimit = fmt.Errorf("bdd: node limit exceeded")

type limitPanic struct{}

// New creates a manager with the given number of variables and a node
// budget (0 means a default of 1<<20 nodes).
func New(nVars, maxNodes int) *Manager {
	if maxNodes <= 0 {
		maxNodes = 1 << 20
	}
	m := &Manager{
		unique:   make(map[nodeData]Node),
		iteCache: make(map[[3]Node]Node),
		nVars:    nVars,
		maxNodes: maxNodes,
	}
	m.nodes = append(m.nodes,
		nodeData{level: terminalLevel}, // False
		nodeData{level: terminalLevel}, // True
	)
	return m
}

// NumVars returns the number of variables.
func (m *Manager) NumVars() int { return m.nVars }

// Size returns the number of live nodes (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// Var returns the BDD for variable i.
func (m *Manager) Var(i int) Node {
	if i < 0 || i >= m.nVars {
		panic(fmt.Sprintf("bdd: variable %d out of range", i))
	}
	return m.mk(int32(i), False, True)
}

func (m *Manager) mk(level int32, low, hi Node) Node {
	if low == hi {
		return low
	}
	key := nodeData{level: level, low: low, hi: hi}
	if n, ok := m.unique[key]; ok {
		return n
	}
	if len(m.nodes) >= m.maxNodes {
		panic(limitPanic{})
	}
	m.nodes = append(m.nodes, key)
	n := Node(len(m.nodes) - 1)
	m.unique[key] = n
	return n
}

// guard converts a node-limit panic into ErrNodeLimit.
func (m *Manager) guard(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(limitPanic); ok {
			*err = ErrNodeLimit
			return
		}
		panic(r)
	}
}

func (m *Manager) level(n Node) int32 { return m.nodes[n].level }

// ite computes if-then-else(f, g, h) with memoization.
func (m *Manager) ite(f, g, h Node) Node {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := [3]Node{f, g, h}
	if r, ok := m.iteCache[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r := m.mk(top, m.ite(f0, g0, h0), m.ite(f1, g1, h1))
	m.iteCache[key] = r
	return r
}

func (m *Manager) cofactors(n Node, level int32) (lo, hi Node) {
	if m.level(n) != level {
		return n, n
	}
	return m.nodes[n].low, m.nodes[n].hi
}

// Apply-style operations. Each returns ErrNodeLimit if the node budget is
// exhausted.

// Not returns the complement of f.
func (m *Manager) Not(f Node) (r Node, err error) {
	defer m.guard(&err)
	return m.ite(f, False, True), nil
}

// And returns f AND g.
func (m *Manager) And(f, g Node) (r Node, err error) {
	defer m.guard(&err)
	return m.ite(f, g, False), nil
}

// Or returns f OR g.
func (m *Manager) Or(f, g Node) (r Node, err error) {
	defer m.guard(&err)
	return m.ite(f, True, g), nil
}

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Node) (r Node, err error) {
	defer m.guard(&err)
	ng := m.ite(g, False, True)
	return m.ite(f, ng, g), nil
}

// Restrict returns f with variable v fixed to value.
func (m *Manager) Restrict(f Node, v int, value bool) (r Node, err error) {
	defer m.guard(&err)
	return m.restrict(f, int32(v), value, map[Node]Node{}), nil
}

func (m *Manager) restrict(f Node, v int32, value bool, memo map[Node]Node) Node {
	l := m.level(f)
	if l > v {
		return f // f does not depend on v (ordered BDD)
	}
	if r, ok := memo[f]; ok {
		return r
	}
	var r Node
	if l == v {
		if value {
			r = m.nodes[f].hi
		} else {
			r = m.nodes[f].low
		}
	} else {
		r = m.mk(l, m.restrict(m.nodes[f].low, v, value, memo),
			m.restrict(m.nodes[f].hi, v, value, memo))
	}
	memo[f] = r
	return r
}

// Implies reports whether f -> g is a tautology.
func (m *Manager) Implies(f, g Node) (bool, error) {
	ng, err := m.Not(g)
	if err != nil {
		return false, err
	}
	bad, err := m.And(f, ng)
	if err != nil {
		return false, err
	}
	return bad == False, nil
}

// Unateness verdicts for a variable.
type Unateness int

// Unateness classifications of a function in one variable.
const (
	Binate Unateness = iota
	PositiveUnate
	NegativeUnate
	Independent // both positive and negative unate
)

func (u Unateness) String() string {
	switch u {
	case PositiveUnate:
		return "positive-unate"
	case NegativeUnate:
		return "negative-unate"
	case Independent:
		return "independent"
	default:
		return "binate"
	}
}

// UnatenessIn classifies f's dependence on variable v: f is positive
// unate when f|v=0 <= f|v=1 and negative unate for the converse
// (Lemma 1's property, decided exactly on the BDD).
func (m *Manager) UnatenessIn(f Node, v int) (Unateness, error) {
	f0, err := m.Restrict(f, v, false)
	if err != nil {
		return Binate, err
	}
	f1, err := m.Restrict(f, v, true)
	if err != nil {
		return Binate, err
	}
	pos, err := m.Implies(f0, f1)
	if err != nil {
		return Binate, err
	}
	neg, err := m.Implies(f1, f0)
	if err != nil {
		return Binate, err
	}
	switch {
	case pos && neg:
		return Independent, nil
	case pos:
		return PositiveUnate, nil
	case neg:
		return NegativeUnate, nil
	default:
		return Binate, nil
	}
}

// SatCount returns the number of satisfying assignments of f over all
// NumVars variables, as a float64 (exact for < 2^53).
func (m *Manager) SatCount(f Node) float64 {
	memo := map[Node]float64{}
	var count func(n Node) float64
	count = func(n Node) float64 {
		if n == False {
			return 0
		}
		if n == True {
			return math.Exp2(float64(m.nVars))
		}
		if c, ok := memo[n]; ok {
			return c
		}
		// Each child count is over all variables; halve per decision.
		c := 0.5*count(m.nodes[n].low) + 0.5*count(m.nodes[n].hi)
		memo[n] = c
		return c
	}
	return count(f)
}

// Support returns the variables f depends on, in increasing order.
func (m *Manager) Support(f Node) []int {
	seen := map[Node]bool{}
	vars := map[int32]bool{}
	var walk func(n Node)
	walk = func(n Node) {
		if n <= True || seen[n] {
			return
		}
		seen[n] = true
		vars[m.nodes[n].level] = true
		walk(m.nodes[n].low)
		walk(m.nodes[n].hi)
	}
	walk(f)
	out := make([]int, 0, len(vars))
	for v := int32(0); v < int32(m.nVars); v++ {
		if vars[v] {
			out = append(out, int(v))
		}
	}
	return out
}

// AnySat returns one satisfying assignment of f (nil if f is False).
// Unconstrained variables are reported as false.
func (m *Manager) AnySat(f Node) []bool {
	if f == False {
		return nil
	}
	assign := make([]bool, m.nVars)
	n := f
	for n > True {
		d := m.nodes[n]
		if d.hi != False {
			assign[d.level] = true
			n = d.hi
		} else {
			n = d.low
		}
	}
	return assign
}

// Eval evaluates f under a complete assignment.
func (m *Manager) Eval(f Node, assign []bool) bool {
	n := f
	for n > True {
		d := m.nodes[n]
		if assign[d.level] {
			n = d.hi
		} else {
			n = d.low
		}
	}
	return n == True
}
