// Package fall implements the Functional Analysis attacks on Logic
// Locking (FALL) from Sirone & Subramanyan, DATE 2019. The attack has
// three structural/functional stages (paper Fig. 4):
//
//  1. Comparator identification (§III-A): find gates equivalent to
//     XOR/XNOR of one circuit input and one key input, recovering the
//     pairing between key bits and protected inputs.
//  2. Support-set matching (§III-B): shortlist candidate cube-stripper
//     gates, whose support equals the comparator circuit-input set.
//  3. Functional analyses (§IV): AnalyzeUnateness (Lemma 1, TTLock),
//     SlidingWindow (Lemma 3) and Distance2H (Lemma 2) extract the
//     protected cube from a candidate gate; combinational equivalence
//     checking (§IV-C) ensures sufficiency. SlidingWindow and Distance2H
//     share one loop over satisfying pairs at distance 2h, each of which
//     carries the key bit on every input its two copies agree on: after
//     the first pair, SlidingWindow asks the still-open inputs to agree
//     one per query, Distance2H all in one query.
//
// The output is a shortlist of suspected keys. When more than one key
// survives, the key confirmation algorithm (internal/keyconfirm, paper §V)
// picks the correct one using I/O oracle access.
package fall

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/sat"
)

// ErrTimeout is returned when an analysis exceeds its context budget
// (cancellation or deadline).
var ErrTimeout = errors.New("fall: analysis timed out")

// Analysis selects which functional analysis drives the attack.
type Analysis int

// Available functional analyses. Auto picks AnalyzeUnateness for h = 0,
// Distance2H when 4h <= m, and SlidingWindow otherwise (the paper's
// applicability conditions).
const (
	Auto Analysis = iota
	Unateness
	SlidingWindow
	Distance2H
)

func (a Analysis) String() string {
	switch a {
	case Unateness:
		return "AnalyzeUnateness"
	case SlidingWindow:
		return "SlidingWindow"
	case Distance2H:
		return "Distance2H"
	default:
		return "Auto"
	}
}

// ParseAnalysis maps an Analysis.String name back to its value; ok is
// false for unknown names. It is the inverse used by serialized
// experiment plans and campaign artifacts.
func ParseAnalysis(s string) (Analysis, bool) {
	switch s {
	case "Auto":
		return Auto, true
	case "AnalyzeUnateness":
		return Unateness, true
	case "SlidingWindow":
		return SlidingWindow, true
	case "Distance2H":
		return Distance2H, true
	}
	return Auto, false
}

// Options configures an attack run.
type Options struct {
	// H is the (known) Hamming distance parameter of the locking scheme.
	H int
	// Analysis selects the functional analysis; Auto applies the paper's
	// applicability rules.
	Analysis Analysis
	// Enc selects the cardinality encoding for Hamming-distance
	// constraints.
	Enc cnf.CardEncoding
	// DisableSimPrefilter turns off the random-simulation pre-filter in
	// the unateness analysis (ablation knob; the SAT queries alone are
	// exact).
	DisableSimPrefilter bool
	// Workers bounds how many candidate×polarity analyses run
	// concurrently; <= 0 means runtime.GOMAXPROCS(0). Each worker owns
	// its solvers, and results merge in candidate order, so the
	// shortlist is identical for every worker count.
	Workers int
	// Solver builds the SAT engine behind every analysis query. Each
	// candidate×polarity cell creates its engines through this factory;
	// nil means default single engines.
	Solver attack.SolverFactory
}

// Comparator records one identified comparator gate: node computes
// XNOR(Input, Key) when Xnor is true, XOR(Input, Key) otherwise.
type Comparator struct {
	Node  int
	Input int
	Key   int
	Xnor  bool
}

// CandidateKey is one suspected key produced by the functional analyses.
type CandidateKey struct {
	// Key maps key-input names to suspected values.
	Key map[string]bool
	// Cube maps protected-input names to the recovered cube values.
	Cube map[string]bool
	// Node is the candidate cube-stripper node the cube was extracted
	// from; Negated records whether its complement was analyzed.
	Node    int
	Negated bool
	// Analysis names the functional analysis that produced the cube.
	Analysis string
}

// Signature returns a canonical string for deduplication. It encodes
// key-input names alongside their values: two candidates over different
// key-input subsets (e.g. partial pairings) must not collide even when
// their sorted bit values agree.
func (k *CandidateKey) Signature() string {
	names := make([]string, 0, len(k.Key))
	for n := range k.Key {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		sb.WriteString(n)
		if k.Key[n] {
			sb.WriteString("=1;")
		} else {
			sb.WriteString("=0;")
		}
	}
	return sb.String()
}

// Result reports the outcome of the FALL structural/functional stages.
type Result struct {
	Comparators []Comparator
	// CompX is the set of circuit-input node ids appearing in
	// comparators, sorted.
	CompX []int
	// Candidates are node ids surviving support-set matching.
	Candidates []int
	// Keys are the deduplicated suspected keys that passed equivalence
	// checking.
	Keys []CandidateKey
	// Timing per stage.
	ComparatorTime time.Duration
	MatchTime      time.Duration
	AnalysisTime   time.Duration
	Total          time.Duration
}

// UniqueKey reports whether exactly one suspected key was found, in which
// case the attack needed no oracle access.
func (r *Result) UniqueKey() bool { return len(r.Keys) == 1 }

// bitset is a fixed-size bit vector over input indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
func (b bitset) indices() []int {
	var out []int
	for wi, w := range b {
		for w != 0 {
			out = append(out, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// supportSets holds, for every node, the set of inputs in its
// transitive fanin cone, as bitsets over input index, plus the input id
// list defining the index space. Attack builds it once for both
// structural stages.
type supportSets struct {
	sup    []bitset
	inputs []int
	idx    map[int]int // input id -> index
}

func supports(c *circuit.Circuit) *supportSets {
	inputs := c.Inputs()
	idx := make(map[int]int, len(inputs))
	for i, id := range inputs {
		idx[id] = i
	}
	sup := make([]bitset, c.Len())
	for id := range c.Nodes {
		b := newBitset(len(inputs))
		n := &c.Nodes[id]
		if n.Type == circuit.Input {
			b.set(idx[id])
		} else {
			for _, f := range n.Fanins {
				b.or(sup[f])
			}
		}
		sup[id] = b
	}
	return &supportSets{sup: sup, inputs: inputs, idx: idx}
}

// FindComparators implements comparator identification (§III-A): all gates
// whose support is exactly one circuit input and one key input and whose
// function is XOR or XNOR of them. Because the support has exactly two
// members, the check is exact by 4-pattern cone simulation.
func FindComparators(c *circuit.Circuit) []Comparator {
	return findComparators(c, supports(c))
}

func findComparators(c *circuit.Circuit, ss *supportSets) []Comparator {
	var comps []Comparator
	for id := range c.Nodes {
		if c.Nodes[id].Type == circuit.Input {
			continue
		}
		if ss.sup[id].count() != 2 {
			continue
		}
		pair := ss.sup[id].indices()
		a, b := ss.inputs[pair[0]], ss.inputs[pair[1]]
		var pi, key int
		switch {
		case c.Nodes[a].IsKey && !c.Nodes[b].IsKey:
			pi, key = b, a
		case !c.Nodes[a].IsKey && c.Nodes[b].IsKey:
			pi, key = a, b
		default:
			continue // two PIs or two keys
		}
		tt, ok := truthTable2(c, id, pi, key)
		if !ok {
			continue
		}
		switch tt {
		case 0b0110: // XOR over (pi,key) pattern order 00,10,01,11
			comps = append(comps, Comparator{Node: id, Input: pi, Key: key, Xnor: false})
		case 0b1001:
			comps = append(comps, Comparator{Node: id, Input: pi, Key: key, Xnor: true})
		}
	}
	return comps
}

// truthTable2 evaluates node id over the four assignments of (a, b),
// returning the truth table with bit index (a + 2b).
func truthTable2(c *circuit.Circuit, id, a, b int) (uint8, bool) {
	cone, im := c.Cone(id)
	vals := make([]uint64, cone.Len())
	for ci, orig := range im {
		switch orig {
		case a:
			vals[ci] = 0b1010 // a = bit0 of pattern index
		case b:
			vals[ci] = 0b1100
		default:
			return 0, false
		}
	}
	cone.Simulate(vals)
	return uint8(vals[cone.Outputs[0]] & 0xF), true
}

// SupportMatch implements support-set matching (§III-B): all non-input
// nodes whose support equals compX exactly (no key inputs, no missing or
// extra circuit inputs).
func SupportMatch(c *circuit.Circuit, compX []int) []int {
	return supportMatch(c, supports(c), compX)
}

func supportMatch(c *circuit.Circuit, ss *supportSets, compX []int) []int {
	want := newBitset(len(ss.inputs))
	for _, x := range compX {
		want.set(ss.idx[x])
	}
	var cands []int
	for id := range c.Nodes {
		if c.Nodes[id].Type == circuit.Input {
			continue
		}
		if ss.sup[id].equal(want) {
			cands = append(cands, id)
		}
	}
	return cands
}

// analysisContext carries a candidate node's extracted cone for one
// candidate×polarity cell, plus the run context bounding every SAT
// query. Every analysis encodes its instance straight into the engine
// that solves it.
type analysisContext struct {
	ctx      context.Context
	cone     *circuit.Circuit
	inputMap map[int]int // cone input id -> locked-circuit node id
	inputs   []int       // cone input ids, sorted
	neg      bool        // analyze the complement of the cone function
	opts     *Options

	// unate is the cell's two-copy unateness instance, encoded by the
	// first checkUnate query that reaches SAT.
	unate *unateInstance
}

func newAnalysisContext(ctx context.Context, c *circuit.Circuit, node int, neg bool, opts *Options) (*analysisContext, error) {
	cone, im := c.Cone(node)
	ins := cone.Inputs()
	for _, id := range ins {
		if cone.Nodes[id].IsKey {
			return nil, fmt.Errorf("fall: candidate node %d depends on a key input", node)
		}
	}
	return &analysisContext{ctx: ctx, cone: cone, inputMap: im, inputs: ins, neg: neg, opts: opts}, nil
}

func (a *analysisContext) expired() bool {
	return a.ctx.Err() != nil
}

// AnalyzeUnateness implements Algorithm 1 (Lemma 1): if the cone function
// is unate in every input, the protected cube bit for input xi is 1 when
// positive unate and 0 when negative unate. Returns the cube over the
// locked circuit's input node ids, or ok=false if the function is binate
// in any variable.
func (a *analysisContext) AnalyzeUnateness() (map[int]bool, bool, error) {
	cube := make(map[int]bool, len(a.inputs))
	// Simulation pre-filter: find binate witnesses cheaply before SAT.
	posViol := make(map[int]bool)
	negViol := make(map[int]bool)
	if !a.opts.DisableSimPrefilter {
		rng := rand.New(rand.NewSource(int64(a.cone.Len())*7919 + 13))
		vals := make([]uint64, a.cone.Len())
		flip := make([]uint64, a.cone.Len())
		for round := 0; round < 4; round++ {
			for _, in := range a.inputs {
				vals[in] = rng.Uint64()
			}
			for _, xi := range a.inputs {
				copy(flip, vals)
				flip[xi] = 0
				a.cone.Simulate(flip)
				f0 := flip[a.cone.Outputs[0]]
				copy(flip, vals)
				flip[xi] = ^uint64(0)
				a.cone.Simulate(flip)
				f1 := flip[a.cone.Outputs[0]]
				if a.neg {
					f0, f1 = ^f0, ^f1
				}
				if f0&^f1 != 0 {
					posViol[xi] = true
				}
				if ^f0&f1 != 0 {
					negViol[xi] = true
				}
				if posViol[xi] && negViol[xi] {
					return nil, false, nil // binate: witness found
				}
			}
		}
	}
	for i, xi := range a.inputs {
		if a.expired() {
			return nil, false, ErrTimeout
		}
		isPos, err := a.checkUnate(i, true, posViol[xi])
		if err != nil {
			return nil, false, err
		}
		if isPos {
			cube[a.inputMap[xi]] = true
			continue
		}
		isNeg, err := a.checkUnate(i, false, negViol[xi])
		if err != nil {
			return nil, false, err
		}
		if isNeg {
			cube[a.inputMap[xi]] = false
			continue
		}
		return nil, false, nil // binate in xi
	}
	return cube, true, nil
}

// unateInstance is the two-copy encoding behind checkUnate: the copies
// share nothing, and eq[i] is the literal asserting the copies agree on
// input i. A cell's unateness queries select the flipped input and the
// violating output pattern purely through assumptions, so one engine
// serves all 2m queries of a cell.
type unateInstance struct {
	s      sat.Engine
	x0, x1 []sat.Lit // the two copies' input literals, indexed like a.inputs
	eq     []sat.Lit // eq[i] true iff x0[i] == x1[i]
	f0, f1 sat.Lit   // positive-polarity outputs of the two copies
}

func (a *analysisContext) encodeUnate() *unateInstance {
	s := attack.NewEngine(a.ctx, a.opts.Solver)
	e := cnf.NewEncoder(s)
	lits0 := e.EncodeCircuitWith(a.cone, nil)
	lits1 := e.EncodeCircuitWith(a.cone, nil)
	u := &unateInstance{
		s:  s,
		x0: cnf.InputLits(a.inputs, lits0),
		x1: cnf.InputLits(a.inputs, lits1),
		f0: lits0[a.cone.Outputs[0]],
		f1: lits1[a.cone.Outputs[0]],
	}
	u.eq = make([]sat.Lit, len(a.inputs))
	for i := range a.inputs {
		u.eq[i] = e.Xor(u.x0[i], u.x1[i]).Neg()
	}
	return u
}

// checkUnate proves or refutes unateness of the cone function in input
// index i by an assumption-only query against the cell's two-copy
// instance: assume the copies agree on every input but the i-th, fix
// that input to 0 in copy 0 and 1 in copy 1, and assume the outputs
// witness the violating pattern — Unsat means no violation exists,
// i.e. the function is unate in the requested direction. All of a
// cell's queries run on one incrementally-reused engine, so learnt
// clauses carry across inputs. knownViolated short-circuits with the
// simulation witness.
func (a *analysisContext) checkUnate(i int, positive, knownViolated bool) (bool, error) {
	if knownViolated {
		return false, nil
	}
	if a.unate == nil {
		a.unate = a.encodeUnate()
	}
	u := a.unate
	f0, f1 := u.f0, u.f1
	if a.neg {
		f0, f1 = f0.Neg(), f1.Neg()
	}
	as := make([]sat.Lit, 0, len(a.inputs)+3)
	for j := range a.inputs {
		if j != i {
			as = append(as, u.eq[j])
		}
	}
	as = append(as, u.x0[i].Neg(), u.x1[i])
	// Positive unate iff no witness of f(xi=0)=1, f(xi=1)=0.
	if positive {
		as = append(as, f0, f1.Neg())
	} else {
		as = append(as, f0.Neg(), f1)
	}
	switch u.s.SolveAssuming(as) {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		return false, nil
	default:
		return false, ErrTimeout
	}
}

// hdInstance returns an engine holding F = cone(X) ∧ cone(X') ∧
// HD(X, X') = 2h ∧ f(X) ∧ f(X'), with f the cell's polarity of the cone
// function, plus the input literal vectors and the difference literals.
func (a *analysisContext) hdInstance(h int) (sat.Engine, []sat.Lit, []sat.Lit, []sat.Lit) {
	s := attack.NewEngine(a.ctx, a.opts.Solver)
	e := cnf.NewEncoder(s)
	lits1 := e.EncodeCircuitWith(a.cone, nil)
	lits2 := e.EncodeCircuitWith(a.cone, nil)
	xs := cnf.InputLits(a.inputs, lits1)
	ys := cnf.InputLits(a.inputs, lits2)
	ds := e.XorPairs(xs, ys)
	e.ExactlyK(ds, 2*h, a.opts.Enc)
	f1, f2 := lits1[a.cone.Outputs[0]], lits2[a.cone.Outputs[0]]
	if a.neg {
		f1, f2 = f1.Neg(), f2.Neg()
	}
	s.AddClause(f1)
	s.AddClause(f2)
	return s, xs, ys, ds
}

// SlidingWindowAnalysis implements Algorithm 2 (Lemma 3). It returns the
// recovered cube over locked-circuit input ids, ok=false if the node is
// inconsistent with a cube stripper, or an error on timeout. By Lemma 3
// an open input's key bit is the one value its copies can agree on, so
// each query assumes only x_i = x'_i for one still-open input and reads
// the bit off the model, which also settles every other input it agrees
// on: a true stripper costs at most 2h satisfiable queries and no UNSAT
// proof. At 2h = m it is inapplicable: HD(X, X') = m forces X' = ¬X, so
// no query that assumes x_i = x'_i is satisfiable, and it returns
// ok=false without solving.
func (a *analysisContext) SlidingWindowAnalysis(h int) (map[int]bool, bool, error) {
	if 2*h == len(a.inputs) {
		return nil, false, nil
	}
	return a.settle(h, 1)
}

// Distance2HAnalysis implements Algorithm 3 (Lemma 2), applicable when
// 4h <= m: two satisfying pairs at distance 2h determine all key bits,
// the second one asked to agree on every input the first leaves open.
func (a *analysisContext) Distance2HAnalysis(h int) (map[int]bool, bool, error) {
	return a.settle(h, len(a.inputs))
}

// settle recovers the cube from satisfying pairs of the HD instance. On
// strip_h(K), a pair at distance 2h = HD(X, K) + HD(K, X') has K between
// its copies: every input on which x_i = x'_i carries K's bit. After the
// first pair, each query assumes ¬d_i (x_i = x'_i) for up to window of
// the still-open inputs, lowest index first, and every model settles
// each input its copies agree on. An UNSAT query, or a model whose
// copies agree on a settled input with the other value, shows the
// function is no stripper (ok=false); the §IV-C equivalence check rejects
// any other non-stripper whose cube this returns.
func (a *analysisContext) settle(h, window int) (map[int]bool, bool, error) {
	s, xs, ys, ds := a.hdInstance(h)
	cube := make(map[int]bool, len(a.inputs))
	st := s.Solve()
	for {
		switch st {
		case sat.Unsat:
			return nil, false, nil
		case sat.Unknown:
			return nil, false, ErrTimeout
		}
		var ask []sat.Lit
		for i, xi := range a.inputs {
			orig, mi := a.inputMap[xi], s.LitTrue(xs[i])
			prev, done := cube[orig]
			switch {
			case mi != s.LitTrue(ys[i]):
				if !done && len(ask) < window {
					ask = append(ask, ds[i].Neg())
				}
			case !done:
				cube[orig] = mi
			case prev != mi:
				return nil, false, nil // two pairs disagree on a key bit
			}
		}
		if len(ask) == 0 {
			return cube, true, nil
		}
		if a.expired() {
			return nil, false, ErrTimeout
		}
		st = s.SolveAssuming(ask)
	}
}

// EquivalenceCheck implements §IV-C: verify cktfn == strip_h(cube) by a
// miter between the cone and a reference Hamming-distance comparator. The
// lemmas are necessary conditions only; this check makes them sufficient.
func (a *analysisContext) EquivalenceCheck(cube map[int]bool, h int) (bool, error) {
	s := attack.NewEngine(a.ctx, a.opts.Solver)
	e := cnf.NewEncoder(s)
	lits := e.EncodeCircuitWith(a.cone, nil)
	ins := cnf.InputLits(a.inputs, lits)
	f := lits[a.cone.Outputs[0]]
	if a.neg {
		f = f.Neg()
	}
	// Reference strip_h(cube)(X): popcount of x_i XOR cube_i equals h.
	ds := make([]sat.Lit, len(a.inputs))
	for i, xi := range a.inputs {
		ds[i] = ins[i]
		if cube[a.inputMap[xi]] {
			ds[i] = ds[i].Neg()
		}
	}
	bitsv := e.Popcount(ds)
	cmp := make([]sat.Lit, len(bitsv))
	for j, b := range bitsv {
		if h&(1<<uint(j)) != 0 {
			cmp[j] = b
		} else {
			cmp[j] = b.Neg()
		}
	}
	if h>>uint(len(bitsv)) != 0 {
		return false, nil // h exceeds representable count: not equivalent
	}
	ref := e.And(cmp...)
	s.AddClause(e.Xor(f, ref)) // miter: SAT iff not equivalent
	switch s.Solve() {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		return false, nil
	default:
		return false, ErrTimeout
	}
}

// sameStripper reports whether the cell's function is strip_h(cube), by
// the §IV-C miter. It answers false without a query unless the cone's
// inputs are exactly the cube's inputs and 2h differs from their count:
// a Hamming sphere of radius h determines its center except at h = m/2,
// where the sphere around K is also the sphere around ¬K, so the cell's
// own analysis could shortlist ¬K.
func (a *analysisContext) sameStripper(cube map[int]bool, h int) (bool, error) {
	if len(cube) != len(a.inputs) || 2*h == len(a.inputs) {
		return false, nil
	}
	for _, xi := range a.inputs {
		if _, ok := cube[a.inputMap[xi]]; !ok {
			return false, nil
		}
	}
	return a.EquivalenceCheck(cube, h)
}

// Attack runs the full FALL pipeline on a locked netlist and returns the
// shortlisted keys. The locked circuit's key inputs must be marked (IsKey)
// and h must match the locking parameter (known to the adversary, §II-A).
// The candidate×polarity analysis grid runs on a worker pool sized by
// Options.Workers; the shortlist is byte-identical for every worker count.
// Cancelling ctx (or letting its deadline pass) stops the attack promptly;
// the partial Result accumulated so far is returned alongside ErrTimeout.
func Attack(ctx context.Context, locked *circuit.Circuit, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &Result{}
	root := obs.SpanFrom(ctx)

	t0 := time.Now()
	spComp := root.Child("fall.comparators")
	ss := supports(locked)
	res.Comparators = findComparators(locked, ss)
	res.ComparatorTime = time.Since(t0)
	spComp.Set("comparators", len(res.Comparators))
	spComp.EndAfter(res.ComparatorTime)
	if len(res.Comparators) == 0 {
		res.Total = time.Since(start)
		return res, nil
	}

	t0 = time.Now()
	spMatch := root.Child("fall.match")
	seen := map[int]bool{}
	for _, cp := range res.Comparators {
		if !seen[cp.Input] {
			seen[cp.Input] = true
			res.CompX = append(res.CompX, cp.Input)
		}
	}
	sort.Ints(res.CompX)
	res.Candidates = supportMatch(locked, ss, res.CompX)
	res.MatchTime = time.Since(t0)
	spMatch.Set("candidates", len(res.Candidates))
	spMatch.EndAfter(res.MatchTime)

	m := len(res.CompX)
	pairing := buildPairing(locked, res.Comparators)

	t0 = time.Now()
	spAnalysis := root.Child("fall.analysis")
	defer func() {
		res.AnalysisTime = time.Since(t0)
		res.Total = time.Since(start)
		spAnalysis.Set("keys", len(res.Keys))
		spAnalysis.EndAfter(res.AnalysisTime)
	}()
	ctx = obs.With(ctx, spAnalysis)

	cands := make([]*candidate, len(res.Candidates))
	for i, node := range res.Candidates {
		cands[i] = newCandidate(node)
	}
	outcomes := runAnalysisGrid(ctx, locked, cands, m, &opts, pairing)

	// Merge in job (candidate-id × polarity) order: the shortlist and the
	// first error reported are identical for every worker count.
	sigs := map[string]bool{}
	for i := range outcomes {
		oc := &outcomes[i]
		if oc.err != nil {
			return res, oc.err
		}
		if !oc.ok {
			continue
		}
		if sig := oc.key.Signature(); !sigs[sig] {
			sigs[sig] = true
			res.Keys = append(res.Keys, oc.key)
		}
	}
	return res, nil
}

// analysisJob is one cell of the candidate×polarity analysis grid.
type analysisJob struct {
	cand *candidate
	neg  bool
}

// analysisOutcome is the verdict of one grid cell: a shortlisted key
// (ok), a duplicate of a key its unit already proved (dup), a silent
// rejection (neither), or an error (timeout or hard failure).
type analysisOutcome struct {
	key  CandidateKey
	cube map[int]bool // the key's cube over locked-circuit input ids
	ok   bool
	dup  bool
	err  error
}

// runAnalysisGrid decides every candidate in a pre-pass
// (filterCandidates), then evaluates the grid's units (gridUnits) on a
// bounded worker pool and returns the outcomes indexed in candidate ×
// polarity order. A unit runs its cells in job order on one worker, and
// each cell after the unit's first key checks itself against that key's
// cube before anything else (analyzeCellInner). Units are handed to the
// pool longest-expected-first to cut tail latency, but each outcome is
// written at its job index and merged in candidate order, so the
// completed-run shortlist does not depend on the worker count or the
// dispatch order. Cells are deterministic: every cone, solver and RNG is
// local to the cell, and a cell reads only the pre-pass verdicts, which
// are read-only, and the cube its own unit proved. An erroring cell
// (hard failure or ctx cancellation) ends its unit and stops further
// units from being dispatched, so the grid fails fast and drains
// promptly; every unit dispatched before the first error still
// completes.
func runAnalysisGrid(ctx context.Context, locked *circuit.Circuit, cands []*candidate, m int, opts *Options, pairing map[int]pairEntry) []analysisOutcome {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	filterCandidates(ctx, locked, cands, opts.H)
	jobs := make([]analysisJob, 0, 2*len(cands))
	for _, cd := range cands {
		jobs = append(jobs, analysisJob{cand: cd, neg: false}, analysisJob{cand: cd, neg: true})
	}
	outcomes := make([]analysisOutcome, len(jobs))
	units := gridUnits(jobs, opts.H)
	attack.ForEachIndexed(workers, len(units), func(u int) bool {
		var proved map[int]bool // the cube of the unit's first key
		for _, i := range units[u] {
			oc := analyzeCell(ctx, locked, jobs[i], m, opts, pairing, proved)
			outcomes[i] = oc
			if oc.err != nil {
				return false
			}
			if proved == nil && oc.ok {
				proved = oc.cube
			}
		}
		return true
	})
	return outcomes
}

// analyzeCell runs one candidate×polarity cell, wrapping it in a
// trace span (parenting every solver query the cell issues) when the
// grid runs traced.
func analyzeCell(ctx context.Context, locked *circuit.Circuit, job analysisJob, m int, opts *Options, pairing map[int]pairEntry, proved map[int]bool) analysisOutcome {
	cell := obs.SpanFrom(ctx).Child("fall.cell", "node", job.cand.node, "neg", job.neg)
	if cell == nil {
		return analyzeCellInner(ctx, locked, job, m, opts, pairing, proved)
	}
	oc := analyzeCellInner(obs.With(ctx, cell), locked, job, m, opts, pairing, proved)
	switch {
	case oc.err != nil:
		cell.Set("outcome", "error")
	case oc.ok:
		cell.Set("outcome", "key")
	case oc.dup:
		cell.Set("outcome", "duplicate")
	default:
		cell.Set("outcome", "rejected")
	}
	cell.End()
	return oc
}

// analyzeCellInner applies the pre-pass verdicts, then extracts the
// cone and runs the selected functional analysis and the equivalence
// check for one candidate×polarity cell. When its unit has already
// proved a key with cube proved, the cell first runs the equivalence
// check against that cube (sameStripper); if its function is
// strip_h(proved), its own analysis could only end with that key, which
// an earlier cell in job order holds, or with no key, so it stops as a
// duplicate. All cone and solver state is created here, per cell, so
// cells never share it.
func analyzeCellInner(ctx context.Context, locked *circuit.Circuit, job analysisJob, m int, opts *Options, pairing map[int]pairEntry, proved map[int]bool) analysisOutcome {
	cd := job.cand
	if ctx.Err() != nil || !cd.decided {
		return analysisOutcome{err: ErrTimeout}
	}
	if !cd.passes(job.neg) {
		return analysisOutcome{} // key-dependent, or its sampled on-set fits no sphere of radius h
	}
	actx, err := newAnalysisContext(ctx, locked, cd.node, job.neg, opts)
	if err != nil {
		return analysisOutcome{err: err}
	}
	if proved != nil {
		dup, err := actx.sameStripper(proved, opts.H)
		if err != nil {
			return analysisOutcome{err: err}
		}
		if dup {
			return analysisOutcome{dup: true}
		}
	}
	cube, ok, algo, err := runAnalysis(actx, m, *opts)
	if err != nil {
		return analysisOutcome{err: err}
	}
	if !ok {
		return analysisOutcome{}
	}
	okEq, err := actx.EquivalenceCheck(cube, opts.H)
	if err != nil {
		return analysisOutcome{err: err}
	}
	if !okEq {
		return analysisOutcome{}
	}
	ck := cubeToKey(locked, cube, pairing)
	ck.Node = cd.node
	ck.Negated = job.neg
	ck.Analysis = algo
	return analysisOutcome{key: ck, cube: cube, ok: true}
}

func runAnalysis(ctx *analysisContext, m int, opts Options) (map[int]bool, bool, string, error) {
	an := opts.Analysis
	if an == Auto {
		switch {
		case opts.H == 0:
			an = Unateness
		case 4*opts.H <= m:
			an = Distance2H
		default:
			an = SlidingWindow
		}
	}
	switch an {
	case Unateness:
		cube, ok, err := ctx.AnalyzeUnateness()
		return cube, ok, "AnalyzeUnateness", err
	case SlidingWindow:
		cube, ok, err := ctx.SlidingWindowAnalysis(opts.H)
		return cube, ok, "SlidingWindow", err
	case Distance2H:
		if 4*opts.H > m {
			return nil, false, "Distance2H", nil // inapplicable (paper §IV-B3)
		}
		cube, ok, err := ctx.Distance2HAnalysis(opts.H)
		return cube, ok, "Distance2H", err
	}
	return nil, false, "", fmt.Errorf("fall: unknown analysis %v", opts.Analysis)
}

// pairEntry resolves the key input paired with a circuit input, with the
// comparator polarity. XNOR comparators are preferred when both polarities
// of the same pair appear in the netlist (the complement edge of an XNOR
// AIG node is an XOR node).
type pairEntry struct {
	key  int
	xnor bool
	rank int
}

func buildPairing(c *circuit.Circuit, comps []Comparator) map[int]pairEntry {
	pairing := make(map[int]pairEntry)
	for _, cp := range comps {
		cur, exists := pairing[cp.Input]
		switch {
		case !exists:
			pairing[cp.Input] = pairEntry{key: cp.Key, xnor: cp.Xnor, rank: cp.Node}
		case !cur.xnor && cp.Xnor:
			pairing[cp.Input] = pairEntry{key: cp.Key, xnor: true, rank: cp.Node}
		}
	}
	return pairing
}

// cubeToKey translates a recovered protected cube into a key assignment
// using the comparator pairing. With XNOR comparators the key bit equals
// the cube bit; with XOR comparators it is inverted (§III-A's z).
func cubeToKey(c *circuit.Circuit, cube map[int]bool, pairing map[int]pairEntry) CandidateKey {
	ck := CandidateKey{
		Key:  make(map[string]bool),
		Cube: make(map[string]bool),
	}
	for pi, v := range cube {
		ck.Cube[c.Nodes[pi].Name] = v
		if pe, ok := pairing[pi]; ok {
			kv := v
			if !pe.xnor {
				kv = !v
			}
			ck.Key[c.Nodes[pe.key].Name] = kv
		}
	}
	return ck
}
