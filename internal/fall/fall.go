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
//     checking (§IV-C) ensures sufficiency.
//
// The output is a shortlist of suspected keys. When more than one key
// survives, the key confirmation algorithm (internal/keyconfirm, paper §V)
// picks the correct one using I/O oracle access.
package fall

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// candidate×polarity cell creates its engines through this factory,
	// so every cell can independently run a portfolio race per query;
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

// supports computes, for every node, the set of inputs in its transitive
// fanin cone, as bitsets over input index. It returns the bitsets plus the
// input id list defining the index space.
func supports(c *circuit.Circuit) ([]bitset, []int) {
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
	return sup, inputs
}

// FindComparators implements comparator identification (§III-A): all gates
// whose support is exactly one circuit input and one key input and whose
// function is XOR or XNOR of them. Because the support has exactly two
// members, the check is exact by 4-pattern cone simulation.
func FindComparators(c *circuit.Circuit) []Comparator {
	sup, inputs := supports(c)
	var comps []Comparator
	for id := range c.Nodes {
		if c.Nodes[id].Type == circuit.Input {
			continue
		}
		if sup[id].count() != 2 {
			continue
		}
		pair := sup[id].indices()
		a, b := inputs[pair[0]], inputs[pair[1]]
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
	sup, inputs := supports(c)
	idx := make(map[int]int, len(inputs))
	for i, id := range inputs {
		idx[id] = i
	}
	want := newBitset(len(inputs))
	for _, x := range compX {
		want.set(idx[x])
	}
	var cands []int
	for id := range c.Nodes {
		if c.Nodes[id].Type == circuit.Input {
			continue
		}
		if sup[id].equal(want) {
			cands = append(cands, id)
		}
	}
	return cands
}

// analysisContext carries a candidate node's extracted cone and SAT
// encoding state shared by the functional analyses, plus the run context
// bounding every SAT query.
type analysisContext struct {
	ctx      context.Context
	cone     *circuit.Circuit
	inputMap map[int]int // cone input id -> locked-circuit node id
	inputs   []int       // cone input ids, sorted
	neg      bool        // analyze the complement of the cone function
	opts     *Options

	// pre caches the candidate's frozen clause-stream prefixes; the grid
	// shares one candPrefixes between the two polarity cells of a
	// candidate, and a directly-constructed context creates its own
	// lazily (prefixes).
	pre *candPrefixes
	// unateEng is the cell's single engine for all checkUnate queries,
	// created lazily over unatePre's frozen prefix.
	unateEng sat.Engine
	unatePre *unatePrefix
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

// stripperLog2Density returns log2(C(m,h)/2^m), the on-set density of
// a true cube stripper over m inputs.
func stripperLog2Density(m, h int) float64 {
	log2d := -float64(m)
	for i := 1; i <= h; i++ {
		log2d += math.Log2(float64(m-h+i)) - math.Log2(float64(i))
	}
	return log2d
}

// densityThreshold returns the density filter's reject threshold for n
// sampled patterns over m inputs. The filter rejects a candidate cell
// whose sampled on-set density is far above C(m,h)/2^m, the density of
// a true cube stripper: strip_h has exactly C(m,h) on-minterms out of
// 2^m, while nodes like popcount sum bits share the stripper's support
// but sit near 50% density and are precisely the candidates whose UNSAT
// lemma proofs blow up. A cell is rejected when its on-count exceeds
// 16x the stripper's expected on-count plus 64 (at the filter's 16384
// patterns) — a margin so far above the stripper's concentration
// (Chernoff tail < 2^-50) that the filter is sound in practice.
func densityThreshold(n float64, m, h int) float64 {
	return 16*n*math.Exp2(stripperLog2Density(m, h)) + 64*n/16384
}

// densityRNG returns the deterministic pattern source for density
// sampling over a cone of coneLen nodes and m inputs: a pure function
// of the cone, never of run order.
func densityRNG(coneLen, m int) *rand.Rand {
	return rand.New(rand.NewSource(int64(coneLen)*2654435761 + int64(m)))
}

// prefixes returns the candidate's prefix cache, creating a private
// one when the context was built outside the grid.
func (a *analysisContext) prefixes() *candPrefixes {
	if a.pre == nil {
		a.pre = &candPrefixes{}
	}
	return a.pre
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

// checkUnate proves or refutes unateness of the cone function in input
// index i by an assumption-only query against the cell's shared
// two-copy prefix: assume the copies agree on every input but the
// i-th, fix that input to 0 in copy 0 and 1 in copy 1, and assume the
// outputs witness the violating pattern — Unsat means no violation
// exists, i.e. the function is unate in the requested direction. All
// of a cell's queries run on one incrementally-reused engine, so
// learnt clauses carry across inputs and persistent or memoizing
// backends see a single session for the whole cell. knownViolated
// short-circuits with the simulation witness.
func (a *analysisContext) checkUnate(i int, positive, knownViolated bool) (bool, error) {
	if knownViolated {
		return false, nil
	}
	if a.unateEng == nil {
		a.unatePre = a.prefixes().unateFor(a)
		a.unateEng = attack.NewEngineOn(a.ctx, a.opts.Solver, a.unatePre.frozen)
	}
	p := a.unatePre
	f0, f1 := p.f0, p.f1
	if a.neg {
		f0, f1 = f0.Neg(), f1.Neg()
	}
	as := make([]sat.Lit, 0, len(a.inputs)+3)
	for j := range a.inputs {
		if j != i {
			as = append(as, p.eq[j])
		}
	}
	as = append(as, p.x0[i].Neg(), p.x1[i])
	// Positive unate iff no witness of f(xi=0)=1, f(xi=1)=0.
	if positive {
		as = append(as, f0, f1.Neg())
	} else {
		as = append(as, f0.Neg(), f1)
	}
	switch a.unateEng.SolveAssuming(as) {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		return false, nil
	default:
		return false, ErrTimeout
	}
}

// hdInstance returns an engine holding F = cone(X) ∧ cone(X') ∧
// HD(X, X') = 2h plus the input literal vectors and the difference
// literals. The distance instance itself comes from the candidate's
// frozen prefix — encoded once, shared by both polarities and both
// analyses — and only the polarity's output units are added here as
// the cell's delta.
func (a *analysisContext) hdInstance(h int) (sat.Engine, []sat.Lit, []sat.Lit, []sat.Lit) {
	p := a.prefixes().hdFor(a, h)
	s := attack.NewEngineOn(a.ctx, a.opts.Solver, p.frozen)
	f1, f2 := p.f1, p.f2
	if a.neg {
		f1, f2 = f1.Neg(), f2.Neg()
	}
	s.AddClause(f1)
	s.AddClause(f2)
	return s, p.xs, p.ys, p.ds
}

// SlidingWindowAnalysis implements Algorithm 2 (Lemma 3). It returns the
// recovered cube over locked-circuit input ids, ok=false if the node is
// inconsistent with a cube stripper, or an error on timeout.
func (a *analysisContext) SlidingWindowAnalysis(h int) (map[int]bool, bool, error) {
	s, xs, ys, ds := a.hdInstance(h)
	switch s.Solve() {
	case sat.Unsat:
		return nil, false, nil
	case sat.Unknown:
		return nil, false, ErrTimeout
	}
	cube := make(map[int]bool, len(a.inputs))
	type pending struct {
		i      int
		mi, mj bool
	}
	var todo []pending
	for i, xi := range a.inputs {
		mi := s.LitTrue(xs[i])
		mj := s.LitTrue(ys[i])
		if mi == mj {
			cube[a.inputMap[xi]] = mi
		} else {
			todo = append(todo, pending{i, mi, mj})
		}
	}
	for _, p := range todo {
		if a.expired() {
			return nil, false, ErrTimeout
		}
		// Lemma 3: exactly one of xi=x'i=mi, xi=x'i=m'i is satisfiable,
		// and that value is the key bit.
		ri := s.SolveAssuming([]sat.Lit{ds[p.i].Neg(), attack.LitWithValue(xs[p.i], p.mi)})
		if ri == sat.Unknown {
			return nil, false, ErrTimeout
		}
		rj := s.SolveAssuming([]sat.Lit{ds[p.i].Neg(), attack.LitWithValue(xs[p.i], p.mj)})
		if rj == sat.Unknown {
			return nil, false, ErrTimeout
		}
		switch {
		case ri == sat.Sat && rj == sat.Unsat:
			cube[a.inputMap[a.inputs[p.i]]] = p.mi
		case ri == sat.Unsat && rj == sat.Sat:
			cube[a.inputMap[a.inputs[p.i]]] = p.mj
		default:
			return nil, false, nil
		}
	}
	return cube, true, nil
}

// Distance2HAnalysis implements Algorithm 3 (Lemma 2), applicable when
// 4h <= m: two satisfying pairs at distance 2h determine all key bits.
func (a *analysisContext) Distance2HAnalysis(h int) (map[int]bool, bool, error) {
	s, xs, ys, ds := a.hdInstance(h)
	switch s.Solve() {
	case sat.Unsat:
		return nil, false, nil
	case sat.Unknown:
		return nil, false, ErrTimeout
	}
	cube := make(map[int]bool, len(a.inputs))
	var cnst []sat.Lit
	var open []int // indices not fixed by the first model
	for i, xi := range a.inputs {
		mi := s.LitTrue(xs[i])
		mj := s.LitTrue(ys[i])
		if mi == mj {
			cube[a.inputMap[xi]] = mi
		} else {
			cnst = append(cnst, ds[i].Neg())
			open = append(open, i)
		}
	}
	if len(open) > 0 {
		switch s.SolveAssuming(cnst) {
		case sat.Unsat:
			return nil, false, nil
		case sat.Unknown:
			return nil, false, ErrTimeout
		}
		for i, xi := range a.inputs {
			mi := s.LitTrue(xs[i])
			mj := s.LitTrue(ys[i])
			if mi != mj {
				continue
			}
			orig := a.inputMap[xi]
			if prev, done := cube[orig]; done {
				if prev != mi {
					return nil, false, nil // inconsistent with Lemma 2
				}
				continue
			}
			cube[orig] = mi
		}
	}
	if len(cube) != len(a.inputs) {
		return nil, false, nil // some bit never agreed; not a stripper
	}
	return cube, true, nil
}

// EquivalenceCheck implements §IV-C: verify cktfn == strip_h(cube) by a
// miter between the cone and a reference Hamming-distance comparator. The
// lemmas are necessary conditions only; this check makes them sufficient.
func (a *analysisContext) EquivalenceCheck(cube map[int]bool, h int) (bool, error) {
	p := a.prefixes().coneFor(a)
	s := attack.NewEngineOn(a.ctx, a.opts.Solver, p.frozen)
	e := p.enc.ForkOnto(s)
	f := p.f
	if a.neg {
		f = f.Neg()
	}
	// Reference strip_h(cube)(X): popcount of x_i XOR cube_i equals h.
	ds := make([]sat.Lit, len(a.inputs))
	for i, xi := range a.inputs {
		ds[i] = p.ins[i]
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
	res.Comparators = FindComparators(locked)
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
	res.Candidates = SupportMatch(locked, res.CompX)
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
// (ok), a silent rejection (!ok), or an error (timeout or hard failure).
type analysisOutcome struct {
	key CandidateKey
	ok  bool
	err error
}

// runAnalysisGrid decides every candidate in a pre-pass
// (filterCandidates), then evaluates its two polarity cells on a
// bounded worker pool and returns the outcomes indexed in candidate ×
// polarity order. Cells are handed to the pool in adaptive
// longest-expected-first order (gridDispatchOrder) to cut tail latency,
// but each outcome is written at its job index and merged in candidate
// order, so the completed-run shortlist does not depend on the worker
// count or the dispatch order. Cells are deterministic: every solver
// and RNG is local to the cell, and the two cells of a candidate share
// only read-only state (verdicts, cone, frozen prefixes). An erroring
// cell (hard failure or ctx cancellation) stops further cells from
// being dispatched, so the grid fails fast and drains promptly; every
// cell dispatched before the first error still completes.
func runAnalysisGrid(ctx context.Context, locked *circuit.Circuit, cands []*candidate, m int, opts *Options, pairing map[int]pairEntry) []analysisOutcome {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	filterCandidates(ctx, locked, cands, opts.H, workers)
	jobs := make([]analysisJob, 0, 2*len(cands))
	for _, cd := range cands {
		jobs = append(jobs, analysisJob{cand: cd, neg: false}, analysisJob{cand: cd, neg: true})
	}
	outcomes := make([]analysisOutcome, len(jobs))
	order := gridDispatchOrder(jobs, opts.H)
	attack.ForEachIndexed(workers, len(jobs), func(j int) bool {
		i := order[j]
		outcomes[i] = analyzeCell(ctx, locked, jobs[i], m, opts, pairing)
		return outcomes[i].err == nil
	})
	return outcomes
}

// analyzeCell runs one candidate×polarity cell, wrapping it in a
// trace span (parenting every solver query the cell issues) when the
// grid runs traced.
func analyzeCell(ctx context.Context, locked *circuit.Circuit, job analysisJob, m int, opts *Options, pairing map[int]pairEntry) analysisOutcome {
	cell := obs.SpanFrom(ctx).Child("fall.cell", "node", job.cand.node, "neg", job.neg)
	if cell == nil {
		return analyzeCellInner(ctx, locked, job, m, opts, pairing)
	}
	oc := analyzeCellInner(obs.With(ctx, cell), locked, job, m, opts, pairing)
	switch {
	case oc.err != nil:
		cell.Set("outcome", "error")
	case oc.ok:
		cell.Set("outcome", "key")
	default:
		cell.Set("outcome", "rejected")
	}
	cell.End()
	return oc
}

// analyzeCellInner applies the pre-pass verdicts, then runs the
// selected functional analysis and the equivalence check for one
// candidate×polarity cell. All solver state is created here, per cell,
// so cells never share solvers; only the candidate's read-only cone and
// immutable frozen prefixes are shared across its two cells.
func analyzeCellInner(ctx context.Context, locked *circuit.Circuit, job analysisJob, m int, opts *Options, pairing map[int]pairEntry) analysisOutcome {
	cd := job.cand
	if ctx.Err() != nil || !cd.decided {
		return analysisOutcome{err: ErrTimeout}
	}
	if cd.keydep || cd.dense[polarity(job.neg)] {
		return analysisOutcome{} // not a stripper, or too dense to be one
	}
	cd.extractCone(locked)
	defer cd.cellDone()
	actx := &analysisContext{ctx: ctx, cone: cd.cone, inputMap: cd.inputMap, inputs: cd.inputs,
		neg: job.neg, opts: opts, pre: cd.pre}
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
	return analysisOutcome{key: ck, ok: true}
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
