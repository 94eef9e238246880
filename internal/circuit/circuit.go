// Package circuit models combinational logic circuits as directed acyclic
// graphs of gates, in the style used by logic-locking research tools. It is
// the substrate for the locking algorithms and attacks in this repository:
// a circuit can be simulated bit-parallel (64 patterns per word), analyzed
// for structural properties (support sets, fanin cones), and converted to
// CNF (see internal/cnf) or to an and-inverter graph (see internal/aig).
//
// Nodes are stored in a slice in topological order: every fanin of a node
// has a smaller index than the node itself. This invariant is maintained by
// the builder API and checked by Validate.
package circuit

import (
	"fmt"
	"strings"
)

// GateType identifies the Boolean function of a node.
type GateType uint8

// Gate types. Input nodes have no fanins; Const0/Const1 are nullary
// constants; Buf and Not are unary; the remaining types accept two or more
// fanins and apply their function across all of them (e.g. a 3-input And is
// the conjunction of three signals).
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	numGateTypes
)

var gateNames = [...]string{
	Input: "INPUT", Const0: "CONST0", Const1: "CONST1", Buf: "BUF",
	Not: "NOT", And: "AND", Nand: "NAND", Or: "OR", Nor: "NOR",
	Xor: "XOR", Xnor: "XNOR",
}

// String returns the conventional upper-case name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// Arity bounds for a gate type. max < 0 means unbounded.
func arity(t GateType) (min, max int) {
	switch t {
	case Input, Const0, Const1:
		return 0, 0
	case Buf, Not:
		return 1, 1
	case And, Nand, Or, Nor, Xor, Xnor:
		return 2, -1
	default:
		return -1, -1
	}
}

// Node is a single gate or input of a circuit. Fanins index into the owning
// circuit's node slice.
type Node struct {
	Name   string
	Type   GateType
	Fanins []int
	// IsKey marks key inputs of a locked circuit (only meaningful for
	// Input nodes). Attackers are assumed to be able to distinguish key
	// inputs from circuit inputs (paper §II-A).
	IsKey bool
}

// Circuit is a combinational logic circuit. The zero value is not usable;
// create circuits with New.
type Circuit struct {
	Name    string
	Nodes   []Node
	Outputs []int // ids of output nodes, in declaration order
	byName  map[string]int
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// Len returns the total number of nodes (inputs, constants and gates).
func (c *Circuit) Len() int { return len(c.Nodes) }

// AddInput appends a primary (circuit) input node and returns its id.
func (c *Circuit) AddInput(name string) int {
	return c.addNode(Node{Name: name, Type: Input})
}

// AddKeyInput appends a key input node and returns its id.
func (c *Circuit) AddKeyInput(name string) int {
	return c.addNode(Node{Name: name, Type: Input, IsKey: true})
}

// AddConst appends a constant node of the given value and returns its id.
func (c *Circuit) AddConst(name string, value bool) int {
	t := Const0
	if value {
		t = Const1
	}
	return c.addNode(Node{Name: name, Type: t})
}

// AddGate appends a gate node computing t over the fanins and returns its
// id. It returns an error if the name is already used, the arity is wrong
// for the gate type, or a fanin id is out of range (which would violate the
// topological-order invariant).
func (c *Circuit) AddGate(name string, t GateType, fanins ...int) (int, error) {
	if _, dup := c.byName[name]; dup {
		return 0, fmt.Errorf("circuit %s: duplicate node name %q", c.Name, name)
	}
	lo, hi := arity(t)
	if lo < 0 {
		return 0, fmt.Errorf("circuit %s: node %q: invalid gate type %v", c.Name, name, t)
	}
	if len(fanins) < lo || (hi >= 0 && len(fanins) > hi) {
		return 0, fmt.Errorf("circuit %s: node %q: %v gate with %d fanins", c.Name, name, t, len(fanins))
	}
	for _, f := range fanins {
		if f < 0 || f >= len(c.Nodes) {
			return 0, fmt.Errorf("circuit %s: node %q: fanin %d out of range", c.Name, name, f)
		}
	}
	return c.addNode(Node{Name: name, Type: t, Fanins: append([]int(nil), fanins...)}), nil
}

// MustGate is AddGate but panics on error; intended for programmatic
// construction where the arguments are known to be valid.
func (c *Circuit) MustGate(name string, t GateType, fanins ...int) int {
	id, err := c.AddGate(name, t, fanins...)
	if err != nil {
		panic(err)
	}
	return id
}

func (c *Circuit) addNode(n Node) int {
	id := len(c.Nodes)
	if n.Name == "" {
		n.Name = fmt.Sprintf("n%d", id)
	}
	c.Nodes = append(c.Nodes, n)
	c.byName[n.Name] = id
	return id
}

// MarkOutput declares node id as a circuit output. A node may be marked at
// most once; re-marking is ignored.
func (c *Circuit) MarkOutput(id int) {
	for _, o := range c.Outputs {
		if o == id {
			return
		}
	}
	c.Outputs = append(c.Outputs, id)
}

// NodeByName returns the id of the node with the given name.
func (c *Circuit) NodeByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// Inputs returns the ids of all input nodes (both circuit and key inputs)
// in id order.
func (c *Circuit) Inputs() []int {
	var ids []int
	for i, n := range c.Nodes {
		if n.Type == Input {
			ids = append(ids, i)
		}
	}
	return ids
}

// PrimaryInputs returns the ids of non-key inputs in id order.
func (c *Circuit) PrimaryInputs() []int {
	var ids []int
	for i, n := range c.Nodes {
		if n.Type == Input && !n.IsKey {
			ids = append(ids, i)
		}
	}
	return ids
}

// KeyInputs returns the ids of key inputs in id order.
func (c *Circuit) KeyInputs() []int {
	var ids []int
	for i, n := range c.Nodes {
		if n.Type == Input && n.IsKey {
			ids = append(ids, i)
		}
	}
	return ids
}

// NumGates counts non-input nodes (gates and constants). This matches the
// "# of gates" accounting used in Table I of the paper.
func (c *Circuit) NumGates() int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.Type != Input {
			n++
		}
	}
	return n
}

// GateCounts returns a histogram of node counts per gate type.
func (c *Circuit) GateCounts() map[GateType]int {
	m := make(map[GateType]int)
	for _, nd := range c.Nodes {
		m[nd.Type]++
	}
	return m
}

// Validate checks structural well-formedness: topological order, name
// table consistency, arity constraints, and output ids in range. It
// returns the first problem found.
func (c *Circuit) Validate() error {
	if c.byName == nil {
		return fmt.Errorf("circuit %s: missing name table (not built with New)", c.Name)
	}
	for i, n := range c.Nodes {
		lo, hi := arity(n.Type)
		if lo < 0 {
			return fmt.Errorf("circuit %s: node %d (%s): invalid type", c.Name, i, n.Name)
		}
		if len(n.Fanins) < lo || (hi >= 0 && len(n.Fanins) > hi) {
			return fmt.Errorf("circuit %s: node %d (%s): %v with %d fanins", c.Name, i, n.Name, n.Type, len(n.Fanins))
		}
		for _, f := range n.Fanins {
			if f < 0 || f >= i {
				return fmt.Errorf("circuit %s: node %d (%s): fanin %d violates topological order", c.Name, i, n.Name, f)
			}
		}
		if got, ok := c.byName[n.Name]; !ok || got != i {
			return fmt.Errorf("circuit %s: node %d (%s): name table mismatch", c.Name, i, n.Name)
		}
	}
	for _, o := range c.Outputs {
		if o < 0 || o >= len(c.Nodes) {
			return fmt.Errorf("circuit %s: output id %d out of range", c.Name, o)
		}
	}
	return nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	cp := &Circuit{
		Name:    c.Name,
		Nodes:   make([]Node, len(c.Nodes)),
		Outputs: append([]int(nil), c.Outputs...),
		byName:  make(map[string]int, len(c.byName)),
	}
	for i, n := range c.Nodes {
		n.Fanins = append([]int(nil), n.Fanins...)
		cp.Nodes[i] = n
		cp.byName[n.Name] = i
	}
	return cp
}

// evalGate applies the gate function of n over 64 patterns in parallel.
// vals holds one word per node id.
func evalGate(n *Node, vals []uint64) uint64 {
	switch n.Type {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf:
		return vals[n.Fanins[0]]
	case Not:
		return ^vals[n.Fanins[0]]
	case And, Nand:
		v := ^uint64(0)
		for _, f := range n.Fanins {
			v &= vals[f]
		}
		if n.Type == Nand {
			v = ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, f := range n.Fanins {
			v |= vals[f]
		}
		if n.Type == Nor {
			v = ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, f := range n.Fanins {
			v ^= vals[f]
		}
		if n.Type == Xnor {
			v = ^v
		}
		return v
	default: // Input: value must be preset by the caller.
		return vals[0] // unreachable; see Simulate
	}
}

// Simulate evaluates the circuit for 64 input patterns in parallel. vals
// must have length Len(); the caller presets the words of every input node
// (bit i of an input word is that input's value in pattern i). On return
// every node's word holds its computed value. Non-input entries are
// overwritten.
func (c *Circuit) Simulate(vals []uint64) {
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Type == Input {
			continue
		}
		vals[i] = evalGate(n, vals)
	}
}

// Eval evaluates the circuit on a single assignment of the inputs, given as
// a map from input node id to value, and returns the value of every node.
// Inputs missing from the map default to false.
func (c *Circuit) Eval(inputs map[int]bool) []bool {
	vals := make([]uint64, len(c.Nodes))
	for id, v := range inputs {
		if v {
			vals[id] = ^uint64(0)
		}
	}
	c.Simulate(vals)
	out := make([]bool, len(c.Nodes))
	for i, w := range vals {
		out[i] = w&1 == 1
	}
	return out
}

// EvalOutputs evaluates the circuit on a single input assignment and
// returns only the output values, in Outputs order.
func (c *Circuit) EvalOutputs(inputs map[int]bool) []bool {
	all := c.Eval(inputs)
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = all[o]
	}
	return out
}

// SimulateNodes is Simulate restricted to ids, which must be ascending and
// closed under fanins (a TFC, for example): only those nodes are evaluated,
// so one node's cone can be simulated in place without extracting it. vals
// must have length Len(); the caller presets the words of the input nodes
// among ids, and every other entry is left as it was.
func (c *Circuit) SimulateNodes(ids []int, vals []uint64) {
	for _, id := range ids {
		n := &c.Nodes[id]
		if n.Type == Input {
			continue
		}
		vals[id] = evalGate(n, vals)
	}
}

// TFC returns the transitive fanin cone of root (including root itself) as
// a sorted list of node ids.
func (c *Circuit) TFC(root int) []int {
	// Fanins precede their node (the topological-order invariant), so
	// one descending pass over 0..root marks the whole cone.
	mark := make([]bool, root+1)
	mark[root] = true
	n := 1
	for v := root; v >= 0; v-- {
		if !mark[v] {
			continue
		}
		for _, f := range c.Nodes[v].Fanins {
			if !mark[f] {
				mark[f] = true
				n++
			}
		}
	}
	ids := make([]int, 0, n)
	for v, in := range mark {
		if in {
			ids = append(ids, v)
		}
	}
	return ids
}

// Support returns the structural support of node root: the ids of all input
// nodes in its transitive fanin cone, sorted by id. (Constants are not part
// of the support.)
func (c *Circuit) Support(root int) []int {
	var sup []int
	for _, v := range c.TFC(root) {
		if c.Nodes[v].Type == Input {
			sup = append(sup, v)
		}
	}
	return sup
}

// Cone extracts the fanin cone of root as a standalone circuit whose
// inputs are the support of root and whose single output is root's
// function. It returns the new circuit and inputMap, which maps each new
// circuit input id to the corresponding node id in c. Key-input flags are
// preserved.
func (c *Circuit) Cone(root int) (cone *Circuit, inputMap map[int]int) {
	tfc := c.TFC(root)
	cone = New(fmt.Sprintf("%s.cone@%s", c.Name, c.Nodes[root].Name))
	inputMap = make(map[int]int)
	old2new := make(map[int]int, len(tfc))
	for _, v := range tfc { // tfc is sorted, preserving topological order
		n := c.Nodes[v]
		var id int
		if n.Type == Input {
			if n.IsKey {
				id = cone.AddKeyInput(n.Name)
			} else {
				id = cone.AddInput(n.Name)
			}
			inputMap[id] = v
		} else if n.Type == Const0 || n.Type == Const1 {
			id = cone.AddConst(n.Name, n.Type == Const1)
		} else {
			fanins := make([]int, len(n.Fanins))
			for i, f := range n.Fanins {
				fanins[i] = old2new[f]
			}
			id = cone.MustGate(n.Name, n.Type, fanins...)
		}
		old2new[v] = id
	}
	cone.MarkOutput(old2new[root])
	return cone, inputMap
}

// KeyFanout marks, by node id, the transitive fanout of the key inputs:
// every key input and every node with a marked fanin. A node outside it
// is a function of the primary inputs alone, so it takes one value in
// every circuit copy over shared primary inputs, whatever their keys.
func (c *Circuit) KeyFanout() []bool {
	in := make([]bool, len(c.Nodes))
	for i := range c.Nodes {
		n := &c.Nodes[i]
		in[i] = n.Type == Input && n.IsKey
		for _, f := range n.Fanins {
			if in[f] {
				in[i] = true
				break
			}
		}
	}
	return in
}

// FanoutCounts returns, for every node, the number of nodes that list it as
// a fanin.
func (c *Circuit) FanoutCounts() []int {
	counts := make([]int, len(c.Nodes))
	for i := range c.Nodes {
		for _, f := range c.Nodes[i].Fanins {
			counts[f]++
		}
	}
	return counts
}

// Levels returns the logic level (longest path from any input/constant) of
// every node. Inputs and constants are level 0.
func (c *Circuit) Levels() []int {
	lv := make([]int, len(c.Nodes))
	for i := range c.Nodes {
		max := -1
		for _, f := range c.Nodes[i].Fanins {
			if lv[f] > max {
				max = lv[f]
			}
		}
		lv[i] = max + 1
	}
	return lv
}

// Depth returns the maximum logic level over all outputs, or 0 for a
// circuit with no outputs.
func (c *Circuit) Depth() int {
	lv := c.Levels()
	d := 0
	for _, o := range c.Outputs {
		if lv[o] > d {
			d = lv[o]
		}
	}
	return d
}

// String returns a compact human-readable netlist listing, one node per
// line, suitable for debugging small circuits.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s: %d nodes, %d outputs\n", c.Name, len(c.Nodes), len(c.Outputs))
	outs := make(map[int]bool, len(c.Outputs))
	for _, o := range c.Outputs {
		outs[o] = true
	}
	for i, n := range c.Nodes {
		fmt.Fprintf(&b, "  %4d %-12s %-6s", i, n.Name, n.Type)
		for _, f := range n.Fanins {
			fmt.Fprintf(&b, " %d", f)
		}
		if n.IsKey {
			b.WriteString(" [key]")
		}
		if outs[i] {
			b.WriteString(" [out]")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
