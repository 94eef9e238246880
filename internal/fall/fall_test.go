package fall

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/aig"
	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/lock"
	"repro/internal/sat"
	"repro/internal/testcirc"
)

// lockFig2a locks the paper's running example and returns original + result.
func lockFig2a(t *testing.T, h int, seed int64) (*circuit.Circuit, *lock.Result) {
	t.Helper()
	orig := testcirc.Fig2a()
	res, err := lock.SFLLHD(orig, lock.Options{KeySize: 4, H: h, Seed: seed, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	return orig, res
}

func keysEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func containsCorrectKey(res *Result, key map[string]bool) bool {
	for _, ck := range res.Keys {
		if keysEqual(ck.Key, key) {
			return true
		}
	}
	return false
}

func TestFindComparatorsOnFig2b(t *testing.T) {
	_, lr := lockFig2a(t, 0, 7)
	comps := FindComparators(lr.Locked)
	if len(comps) == 0 {
		t.Fatal("no comparators found in TTLock netlist")
	}
	// Each protected input must be paired with its key input.
	pairs := map[string]string{}
	for _, cp := range comps {
		pi := lr.Locked.Nodes[cp.Input].Name
		key := lr.Locked.Nodes[cp.Key].Name
		if prev, ok := pairs[pi]; ok && prev != key {
			t.Errorf("input %s paired with both %s and %s", pi, prev, key)
		}
		pairs[pi] = key
	}
	for i, pi := range lr.ProtectedInputs {
		want := lr.KeyNames[i]
		if got := pairs[pi]; got != want {
			t.Errorf("pairing for %s: got %s, want %s", pi, got, want)
		}
	}
}

func TestSupportMatchFindsStripper(t *testing.T) {
	_, lr := lockFig2a(t, 0, 7)
	comps := FindComparators(lr.Locked)
	var compX []int
	seen := map[int]bool{}
	for _, cp := range comps {
		if !seen[cp.Input] {
			seen[cp.Input] = true
			compX = append(compX, cp.Input)
		}
	}
	cands := SupportMatch(lr.Locked, compX)
	if len(cands) == 0 {
		t.Fatal("support matching found no candidates")
	}
	// No candidate may depend on key inputs.
	for _, cand := range cands {
		for _, s := range lr.Locked.Support(cand) {
			if lr.Locked.Nodes[s].IsKey {
				t.Errorf("candidate %d depends on key input", cand)
			}
		}
	}
}

func TestAttackTTLockFig2a(t *testing.T) {
	_, lr := lockFig2a(t, 0, 7)
	res, err := Attack(context.Background(), lr.Locked, Options{H: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) == 0 {
		t.Fatal("attack produced no keys")
	}
	if !containsCorrectKey(res, lr.Key) {
		t.Fatalf("correct key not among %d shortlisted keys", len(res.Keys))
	}
	if !res.UniqueKey() {
		t.Logf("note: %d keys shortlisted (oracle needed)", len(res.Keys))
	}
}

func TestAttackSFLLHD1Fig2a(t *testing.T) {
	_, lr := lockFig2a(t, 1, 11)
	res, err := Attack(context.Background(), lr.Locked, Options{H: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !containsCorrectKey(res, lr.Key) {
		t.Fatalf("correct key not recovered; got %d keys", len(res.Keys))
	}
}

func TestAttackSFLLVariousAnalyses(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := testcirc.Random(rng, 12, 120)
	cases := []struct {
		h        int
		analysis Analysis
		want     bool // expect success
	}{
		{0, Unateness, true},
		{0, Auto, true},
		{1, SlidingWindow, true},
		{1, Distance2H, true},
		{2, SlidingWindow, true},
		{2, Distance2H, true},
		{3, SlidingWindow, true},
		{3, Distance2H, true}, // 4h=12 <= m=12: applicable
		{4, SlidingWindow, true},
		{4, Distance2H, false}, // 4h=16 > m=12: inapplicable
	}
	for _, tc := range cases {
		lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 12, H: tc.h, Seed: int64(100 + tc.h), Optimize: true})
		if err != nil {
			t.Fatalf("h=%d: lock: %v", tc.h, err)
		}
		res, err := Attack(context.Background(), lr.Locked, Options{H: tc.h, Analysis: tc.analysis})
		if err != nil {
			t.Fatalf("h=%d %v: %v", tc.h, tc.analysis, err)
		}
		got := containsCorrectKey(res, lr.Key)
		if got != tc.want {
			t.Errorf("h=%d %v: recovered=%v, want %v (keys=%d)", tc.h, tc.analysis, got, tc.want, len(res.Keys))
		}
	}
}

func TestAttackWithSeqCounterEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	orig := testcirc.Random(rng, 10, 80)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 10, H: 2, Seed: 5, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Attack(context.Background(), lr.Locked, Options{H: 2, Enc: cnf.SeqCounter})
	if err != nil {
		t.Fatal(err)
	}
	if !containsCorrectKey(res, lr.Key) {
		t.Error("seq-counter encoding failed to recover key")
	}
}

func TestAttackTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	orig := testcirc.Random(rng, 10, 80)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 10, H: 2, Seed: 5, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: the attack must stop before any analysis
	_, err = Attack(ctx, lr.Locked, Options{H: 2})
	if err != ErrTimeout {
		t.Errorf("cancelled context: err = %v, want ErrTimeout", err)
	}
}

func TestAttackUnlockedCircuitFindsNothing(t *testing.T) {
	// A circuit without key inputs has no comparators; the attack reports
	// no keys rather than failing.
	orig := testcirc.Fig2a()
	res, err := Attack(context.Background(), orig, Options{H: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Comparators) != 0 || len(res.Keys) != 0 {
		t.Errorf("found %d comparators / %d keys in unlocked circuit",
			len(res.Comparators), len(res.Keys))
	}
}

func TestAttackRLLFindsNoStripper(t *testing.T) {
	// RLL has no cube stripper; FALL may find comparator-like gates but
	// the functional analyses must not confirm a full key... unless the
	// coincidence equivalence holds, which equivalence checking rules out
	// for keys >= 2 bits spread over the circuit.
	orig := testcirc.C17()
	lr, err := lock.RandomXOR(orig, lock.Options{KeySize: 3, Seed: 9, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Attack(context.Background(), lr.Locked, Options{H: 0})
	if err != nil {
		t.Fatal(err)
	}
	// We only require that any shortlisted key is *not* blindly claimed
	// unique-and-correct: if keys were found, they must fail against the
	// real function somewhere, or equal the correct key by luck. This
	// documents FALL's scope (it targets stripped-functionality locking).
	t.Logf("RLL: %d comparators, %d candidates, %d keys",
		len(res.Comparators), len(res.Candidates), len(res.Keys))
}

// buildCube builds a pure cube circuit over m inputs: AND of literals per
// the cube bits (strip_0).
func buildCube(m int, cube []bool) *circuit.Circuit {
	c := circuit.New("cube")
	lits := make([]int, m)
	for i := 0; i < m; i++ {
		in := c.AddInput("")
		if cube[i] {
			lits[i] = in
		} else {
			lits[i] = c.MustGate("", circuit.Not, in)
		}
	}
	c.MarkOutput(c.MustGate("F", circuit.And, lits...))
	return c
}

// Property (Lemma 1): AnalyzeUnateness recovers the exact cube of a
// random cube function.
func TestQuickLemma1Unateness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(8)
		cube := make([]bool, m)
		for i := range cube {
			cube[i] = rng.Intn(2) == 1
		}
		c := buildCube(m, cube)
		opts := Options{H: 0}
		ctx, err := newAnalysisContext(context.Background(), c, c.Outputs[0], false, &opts)
		if err != nil {
			return false
		}
		got, ok, err := ctx.AnalyzeUnateness()
		if err != nil || !ok {
			return false
		}
		for i, in := range ctx.inputs {
			if got[ctx.inputMap[in]] != cube[i] {
				return false
			}
		}
		okEq, err := ctx.EquivalenceCheck(got, 0)
		return err == nil && okEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnatenessRejectsBinate(t *testing.T) {
	// XOR is binate in both inputs.
	c := circuit.New("binate")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.MustGate("g", circuit.Xor, a, b)
	c.MarkOutput(g)
	for _, pre := range []bool{false, true} {
		opts := Options{H: 0, DisableSimPrefilter: pre}
		ctx, err := newAnalysisContext(context.Background(), c, g, false, &opts)
		if err != nil {
			t.Fatal(err)
		}
		_, ok, err := ctx.AnalyzeUnateness()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("prefilterDisabled=%v: XOR reported unate", pre)
		}
	}
}

// buildStripHD builds strip_h(cube) as OR of minterms at Hamming distance
// exactly h from the cube (only for small m); given several cubes, it
// builds the OR of their strip_h functions.
func buildStripHD(m, h int, cubes ...[]bool) *circuit.Circuit {
	c := circuit.New("strip")
	ins := make([]int, m)
	for i := range ins {
		ins[i] = c.AddInput("")
	}
	onSphere := func(p int) bool {
		for _, cube := range cubes {
			hd := 0
			for i := 0; i < m; i++ {
				if p&(1<<uint(i)) != 0 != cube[i] {
					hd++
				}
			}
			if hd == h {
				return true
			}
		}
		return false
	}
	var minterms []int
	for p := 0; p < 1<<uint(m); p++ {
		if !onSphere(p) {
			continue
		}
		lits := make([]int, m)
		for i := 0; i < m; i++ {
			if p&(1<<uint(i)) != 0 {
				lits[i] = ins[i]
			} else {
				lits[i] = c.MustGate("", circuit.Not, ins[i])
			}
		}
		minterms = append(minterms, c.MustGate("", circuit.And, lits...))
	}
	var out int
	switch len(minterms) {
	case 0:
		out = c.AddConst("zero", false)
	case 1:
		out = minterms[0]
	default:
		out = c.MustGate("F", circuit.Or, minterms...)
	}
	c.MarkOutput(out)
	return c
}

// Property (Lemmas 2/3): SlidingWindow and Distance2H recover the cube of
// a true strip_h function built from its minterms.
func TestQuickLemmas23OnTrueStripper(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + rng.Intn(4) // 4..7
		// SlidingWindow requires h < floor(m/2) (paper §IV-B2).
		hMax := m/2 - 1
		if hMax < 1 {
			hMax = 1
		}
		h := 1 + rng.Intn(hMax)
		cube := make([]bool, m)
		for i := range cube {
			cube[i] = rng.Intn(2) == 1
		}
		c := aig.Strash(buildStripHD(m, h, cube))
		opts := Options{H: h}
		ctx, err := newAnalysisContext(context.Background(), c, c.Outputs[0], false, &opts)
		if err != nil {
			return false
		}
		check := func(got map[int]bool, ok bool, err error) bool {
			if err != nil || !ok {
				return false
			}
			for i, in := range ctx.inputs {
				if got[ctx.inputMap[in]] != cube[i] {
					return false
				}
			}
			okEq, err := ctx.EquivalenceCheck(got, h)
			return err == nil && okEq
		}
		if !check(ctx.SlidingWindowAnalysis(h)) {
			t.Logf("seed %d m=%d h=%d: sliding window failed", seed, m, h)
			return false
		}
		if 4*h <= m && !check(ctx.Distance2HAnalysis(h)) {
			t.Logf("seed %d m=%d h=%d: distance2h failed", seed, m, h)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSlidingWindowInapplicableAtHalfWidth: at 2h = m the instance's
// HD(X, X') = 2h forces X' = ¬X, so every Lemma 3 query that assumes
// x_i = x'_i is UNSAT and the analysis can only end without a cube. It answers so before building an engine; at h = 2 on the same
// width it still recovers the cube.
func TestSlidingWindowInapplicableAtHalfWidth(t *testing.T) {
	cube := []bool{true, false, true, true, false, false}
	for _, h := range []int{3, 2} {
		c := aig.Strash(buildStripHD(len(cube), h, cube))
		built := 0
		opts := Options{H: h, Solver: func(ctx context.Context) sat.Engine {
			built++
			return attack.NewSolver(ctx)
		}}
		ctx, err := newAnalysisContext(context.Background(), c, c.Outputs[0], false, &opts)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := ctx.SlidingWindowAnalysis(h)
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		if 2*h == len(cube) {
			if ok || built != 0 {
				t.Errorf("h=%d: ok %v after building %d engines, want no cube and no engine", h, ok, built)
			}
			continue
		}
		if !ok {
			t.Fatalf("h=%d: no cube recovered", h)
		}
		for i, in := range ctx.inputs {
			if got[ctx.inputMap[in]] != cube[i] {
				t.Errorf("h=%d: bit %d = %v, want %v", h, i, got[ctx.inputMap[in]], cube[i])
			}
		}
	}
}

func TestEquivalenceCheckRejectsWrongCube(t *testing.T) {
	cube := []bool{true, false, true, true}
	c := buildCube(4, cube)
	opts := Options{H: 0}
	ctx, err := newAnalysisContext(context.Background(), c, c.Outputs[0], false, &opts)
	if err != nil {
		t.Fatal(err)
	}
	wrong := make(map[int]bool)
	for i, in := range ctx.inputs {
		wrong[ctx.inputMap[in]] = !cube[i]
	}
	ok, err := ctx.EquivalenceCheck(wrong, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("equivalence check accepted the complement cube")
	}
}

func TestSlidingWindowRejectsNonStripper(t *testing.T) {
	// Parity has satisfying pairs at every even distance; Lemma 3 checks
	// must fail or the equivalence check must reject.
	c := circuit.New("parity")
	ins := make([]int, 6)
	for i := range ins {
		ins[i] = c.AddInput("")
	}
	g := c.MustGate("g", circuit.Xor, ins...)
	c.MarkOutput(g)
	opts := Options{H: 1}
	ctx, err := newAnalysisContext(context.Background(), c, g, false, &opts)
	if err != nil {
		t.Fatal(err)
	}
	cube, ok, err := ctx.SlidingWindowAnalysis(1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		okEq, err := ctx.EquivalenceCheck(cube, 1)
		if err != nil {
			t.Fatal(err)
		}
		if okEq {
			t.Error("parity accepted as a strip_1 function")
		}
	}
}

// countingEngine records the calls an analysis makes on its engine: the
// Solve calls, each SolveAssuming call's assumption count, and every
// answer in order.
type countingEngine struct {
	sat.Engine
	solves  int
	assumed []int
	answers []sat.Status
}

func (e *countingEngine) Solve() sat.Status {
	e.solves++
	st := e.Engine.Solve()
	e.answers = append(e.answers, st)
	return st
}

func (e *countingEngine) SolveAssuming(as []sat.Lit) sat.Status {
	e.assumed = append(e.assumed, len(as))
	st := e.Engine.SolveAssuming(as)
	e.answers = append(e.answers, st)
	return st
}

// countingOptions returns analysis options whose every engine is a
// countingEngine, appended to *engines as it is built.
func countingOptions(h int, engines *[]*countingEngine) *Options {
	return &Options{H: h, Solver: func(ctx context.Context) sat.Engine {
		e := &countingEngine{Engine: attack.NewSolver(ctx)}
		*engines = append(*engines, e)
		return e
	}}
}

// On a true strip_h(K) cone, the analysis Auto picks asks a fixed plan
// on one engine and returns K: SlidingWindow (4h > m > 2h) solves once,
// then asks at most 2h queries of one assumption each, all satisfiable;
// Distance2H (4h <= m) solves once, then asks one satisfiable query
// assuming the 2h inputs the first pair leaves open.
func TestSettleQueryPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, tc := range []struct {
		m, h int
		want string
	}{
		{7, 2, "SlidingWindow"}, {10, 3, "SlidingWindow"}, {12, 5, "SlidingWindow"},
		{4, 1, "Distance2H"}, {8, 2, "Distance2H"}, {12, 3, "Distance2H"},
	} {
		for trial := 0; trial < 3; trial++ {
			cube := make([]bool, tc.m)
			for i := range cube {
				cube[i] = rng.Intn(2) == 1
			}
			c := aig.Strash(buildStripHD(tc.m, tc.h, cube))
			var engines []*countingEngine
			opts := countingOptions(tc.h, &engines)
			actx, err := newAnalysisContext(context.Background(), c, c.Outputs[0], false, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, algo, err := runAnalysis(actx, tc.m, *opts)
			name := fmt.Sprintf("m=%d h=%d cube=%v", tc.m, tc.h, cube)
			if err != nil || !ok || algo != tc.want {
				t.Fatalf("%s: %s ok=%v err=%v, want %s to recover the cube", name, algo, ok, err, tc.want)
			}
			for i, in := range actx.inputs {
				if got[actx.inputMap[in]] != cube[i] {
					t.Errorf("%s: bit %d = %v, want %v", name, i, got[actx.inputMap[in]], cube[i])
				}
			}
			if len(engines) != 1 {
				t.Fatalf("%s: built %d engines, want 1", name, len(engines))
			}
			e := engines[0]
			if e.solves != 1 {
				t.Errorf("%s: %d Solve calls, want 1", name, e.solves)
			}
			for _, st := range e.answers {
				if st != sat.Sat {
					t.Errorf("%s: answers %v, want only Sat", name, e.answers)
					break
				}
			}
			if algo == "Distance2H" {
				if !reflect.DeepEqual(e.assumed, []int{2 * tc.h}) {
					t.Errorf("%s: SolveAssuming sizes %v, want [%d]", name, e.assumed, 2*tc.h)
				}
				continue
			}
			if len(e.assumed) > 2*tc.h {
				t.Errorf("%s: %d SolveAssuming calls, want at most %d", name, len(e.assumed), 2*tc.h)
			}
			for _, n := range e.assumed {
				if n != 1 {
					t.Errorf("%s: SolveAssuming sizes %v, want one assumption each", name, e.assumed)
					break
				}
			}
		}
	}
}

// The OR of two strip_2 functions around different centers at m = 7 is
// no stripper: SlidingWindow plus the equivalence check never accepts it,
// for centers at every distance. Some of these are rejected by the
// analysis itself, from satisfiable answers alone: two pairs put
// different bits between their copies.
func TestSlidingWindowRejectsTwoSpheres(t *testing.T) {
	const m, h = 7, 2
	rng := rand.New(rand.NewSource(59))
	contradicted := 0
	for d := 1; d <= m; d++ {
		for trial := 0; trial < 3; trial++ {
			k1 := make([]bool, m)
			for i := range k1 {
				k1[i] = rng.Intn(2) == 1
			}
			k2 := append([]bool(nil), k1...)
			for _, i := range rng.Perm(m)[:d] {
				k2[i] = !k2[i]
			}
			c := aig.Strash(buildStripHD(m, h, k1, k2))
			var engines []*countingEngine
			opts := countingOptions(h, &engines)
			actx, err := newAnalysisContext(context.Background(), c, c.Outputs[0], false, opts)
			if err != nil {
				t.Fatal(err)
			}
			cube, ok, err := actx.SlidingWindowAnalysis(h)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if !slices.Contains(engines[0].answers, sat.Unsat) {
					contradicted++
				}
				continue
			}
			okEq, err := actx.EquivalenceCheck(cube, h)
			if err != nil {
				t.Fatal(err)
			}
			if okEq {
				t.Errorf("centers %v and %v (distance %d): accepted as strip_2(%v)", k1, k2, d, cube)
			}
		}
	}
	if contradicted == 0 {
		t.Error("vacuous: no two-sphere function was rejected by a contradiction")
	}
}

func TestCandidateWithKeySupportRejected(t *testing.T) {
	c := circuit.New("k")
	x := c.AddInput("x")
	k := c.AddKeyInput("keyinput0")
	g := c.MustGate("g", circuit.And, x, k)
	c.MarkOutput(g)
	opts := Options{}
	if _, err := newAnalysisContext(context.Background(), c, g, false, &opts); err == nil {
		t.Error("analysis context accepted key-dependent candidate")
	}
}

func TestAttackKeySubsetOfInputs(t *testing.T) {
	// Locked circuits where the cube covers only some inputs: the attack
	// must still identify the right pairing and key.
	rng := rand.New(rand.NewSource(57))
	orig := testcirc.Random(rng, 14, 150)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 7, H: 1, Seed: 3, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Attack(context.Background(), lr.Locked, Options{H: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !containsCorrectKey(res, lr.Key) {
		t.Fatalf("correct key not recovered (keys=%d)", len(res.Keys))
	}
	for _, ck := range res.Keys {
		if len(ck.Key) != 7 {
			t.Errorf("key covers %d bits, want 7", len(ck.Key))
		}
	}
}

// Property: the full FALL attack recovers planted SFLL keys on random
// circuits across h values.
func TestQuickAttackRecoversPlantedKeys(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nIn := 8 + rng.Intn(5)
		orig := testcirc.Random(rng, nIn, 60+rng.Intn(60))
		m := 6 + rng.Intn(nIn-5)
		h := rng.Intn(m / 3)
		lr, err := lock.SFLLHD(orig, lock.Options{KeySize: m, H: h, Seed: seed, Optimize: true})
		if err != nil {
			t.Logf("seed %d: lock: %v", seed, err)
			return false
		}
		res, err := Attack(context.Background(), lr.Locked, Options{H: h})
		if err != nil {
			t.Logf("seed %d: attack: %v", seed, err)
			return false
		}
		if !containsCorrectKey(res, lr.Key) {
			t.Logf("seed %d (m=%d h=%d): key missed, %d keys", seed, m, h, len(res.Keys))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Regression: signatures encode key-input names, not just sorted bit
// values. Candidates over different key-input subsets (partial pairings)
// used to collide — {keyinput0: 1} and {keyinput1: 1} both signed as "1"
// and one was silently dropped from the shortlist.
func TestSignatureDistinguishesKeyNames(t *testing.T) {
	a := &CandidateKey{Key: map[string]bool{"keyinput0": true}}
	b := &CandidateKey{Key: map[string]bool{"keyinput1": true}}
	if a.Signature() == b.Signature() {
		t.Errorf("keys over different key-input subsets share signature %q", a.Signature())
	}
	// Same assignment must still dedup.
	c := &CandidateKey{Key: map[string]bool{"keyinput0": true}}
	if a.Signature() != c.Signature() {
		t.Errorf("identical keys got distinct signatures %q vs %q", a.Signature(), c.Signature())
	}
	// Values still matter.
	d := &CandidateKey{Key: map[string]bool{"keyinput0": false}}
	if a.Signature() == d.Signature() {
		t.Error("complementary assignments share a signature")
	}
}

// The FALL shortlist must be byte-identical for every worker count: the
// grid merges in candidate order, and every cell is deterministic.
func TestAttackDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	orig := testcirc.Random(rng, 12, 120)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 12, H: 2, Seed: 29, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	var want *Result
	for _, workers := range []int{1, 4} {
		res, err := Attack(context.Background(), lr.Locked, Options{H: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = res
			if len(res.Keys) == 0 {
				t.Fatal("no keys shortlisted; determinism check is vacuous")
			}
			continue
		}
		if !reflect.DeepEqual(res.Keys, want.Keys) {
			t.Errorf("workers=%d: shortlist differs\n got %+v\nwant %+v", workers, res.Keys, want.Keys)
		}
		if !reflect.DeepEqual(res.Candidates, want.Candidates) || !reflect.DeepEqual(res.CompX, want.CompX) {
			t.Errorf("workers=%d: structural stages differ", workers)
		}
	}
}

// Cancelling the context must stop a multi-worker attack promptly, and
// the pool's goroutines must all drain (no leaks): whether the context
// is cancelled before the candidate pre-pass, part way through it, or
// while the grid's cells run.
func TestAttackCancellationDrainsPool(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	orig := testcirc.Random(rng, 14, 150)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 12, H: 3, Seed: 5, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		// mayFinish: the attack may legitimately complete before the
		// cancellation lands on a fast machine.
		mayFinish bool
	}{
		{"before-prepass", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, false},
		{"during-prepass", func() (context.Context, context.CancelFunc) {
			ctx := newCancelAfter(3)
			return ctx, ctx.cancel
		}, false},
		{"during-grid", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			return ctx, cancel
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			_, err := Attack(ctx, lr.Locked, Options{H: 3, Workers: 4})
			elapsed := time.Since(start)
			if err != ErrTimeout && (err != nil || !tc.mayFinish) {
				t.Fatalf("cancelled attack returned %v, want ErrTimeout", err)
			}
			if elapsed > 30*time.Second {
				t.Errorf("cancelled attack took %v to drain", elapsed)
			}
			// The pool goroutines must exit once Attack returns.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("goroutines leaked: %d before, %d after drain window", before, got)
			}
		})
	}
}

func TestTruthTable2(t *testing.T) {
	c := circuit.New("tt")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.MustGate("x", circuit.Xor, a, b)
	n := c.MustGate("n", circuit.Xnor, a, b)
	c.MarkOutput(x)
	if tt, ok := truthTable2(c, x, a, b); !ok || tt != 0b0110 {
		t.Errorf("XOR tt = %04b ok=%v", tt, ok)
	}
	if tt, ok := truthTable2(c, n, a, b); !ok || tt != 0b1001 {
		t.Errorf("XNOR tt = %04b ok=%v", tt, ok)
	}
}
