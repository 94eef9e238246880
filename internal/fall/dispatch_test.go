package fall

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/genbench"
	"repro/internal/lock"
	"repro/internal/testcirc"
)

// supportCandidates runs the structural stages and returns the
// support-matched candidates, undecided.
func supportCandidates(c *circuit.Circuit) []*candidate {
	seen := map[int]bool{}
	var compX []int
	for _, cp := range FindComparators(c) {
		if !seen[cp.Input] {
			seen[cp.Input] = true
			compX = append(compX, cp.Input)
		}
	}
	sort.Ints(compX)
	var cands []*candidate
	for _, node := range SupportMatch(c, compX) {
		cands = append(cands, newCandidate(node))
	}
	return cands
}

// coneOnSets is the reference sweep for nodes sampled together: the
// lock's stream drawn over the union of the nodes' supports (filterRNG
// seeded by the size of the union of their TFCs and its input count,
// inputs in ascending id order), each node's extracted cone given its
// inputs' words and simulated, all 16384 patterns, no early exit. It
// returns, per node, each polarity's on-set patterns in (word, lane)
// order as bit masks over the cone's inputs, and the cone's input count.
func coneOnSets(t *testing.T, c *circuit.Circuit, nodes []int) (on [][2][]uint64, m []int) {
	inUnion := map[int]bool{}
	for _, node := range nodes {
		for _, id := range c.TFC(node) {
			inUnion[id] = true
		}
	}
	var ins []int
	for id := range inUnion {
		if c.Nodes[id].Type == circuit.Input {
			ins = append(ins, id)
		}
	}
	sort.Ints(ins)
	rng := filterRNG(len(inUnion), len(ins))
	words := make([]map[int]uint64, filterWords) // per word, every union input's word
	for w := range words {
		words[w] = map[int]uint64{}
		for _, in := range ins {
			words[w][in] = rng.Uint64()
		}
	}
	for _, node := range nodes {
		cone, im := c.Cone(node)
		cins := cone.Inputs()
		if len(cins) > 64 {
			t.Fatalf("node %d: %d inputs do not fit a mask", node, len(cins))
		}
		vals := make([]uint64, cone.Len())
		var pols [2][]uint64
		for _, word := range words {
			for _, in := range cins {
				vals[in] = word[im[in]]
			}
			cone.Simulate(vals)
			out := vals[cone.Outputs[0]]
			for lane := 0; lane < 64; lane++ {
				var p uint64
				for i, in := range cins {
					p |= (vals[in] >> lane & 1) << i
				}
				pol := int(^out >> lane & 1) // 0: on in the positive polarity
				pols[pol] = append(pols[pol], p)
			}
		}
		on = append(on, pols)
		m = append(m, len(cins))
	}
	return on, m
}

// sphereRule is the shape filter's rule, applied pattern by pattern: an
// on-set is rejected when a later pattern differs from the first in an
// odd number of inputs or in more than 2h.
func sphereRule(on []uint64, h int) bool {
	for _, p := range on {
		if d := bits.OnesCount64(p ^ on[0]); d%2 == 1 || d > 2*h {
			return true
		}
	}
	return false
}

// Property: for every h in 0..m, the verdicts of the one sweep per lock
// equal the shape rule applied to all 16384 patterns of the lock's
// stream simulated on each extracted cone, over random cones sampled
// together and the support-matched (popcount and stripper) nodes of
// SFLL-HD locks. The inputs cover cells with both polarities rejected,
// with exactly one rejected and with neither.
func TestShapeVerdictsMatchFullConeSweep(t *testing.T) {
	type sample struct {
		c     *circuit.Circuit
		nodes []int
	}
	var samples []sample
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 6; i++ {
		c := testcirc.Random(rng, 4+rng.Intn(9), 40+rng.Intn(80))
		var nodes []int
		for j := 0; j < 12; j++ {
			nodes = append(nodes, c.Len()-1-rng.Intn(c.Len()/2))
		}
		samples = append(samples, sample{c, nodes})
	}
	for i, m := range []int{6, 9, 12} {
		orig := testcirc.Random(rng, 12, 120)
		lr, err := lock.SFLLHD(orig, lock.Options{KeySize: m, H: m / 3, Seed: int64(50 + i), Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		var nodes []int
		for _, cd := range supportCandidates(lr.Locked) {
			nodes = append(nodes, cd.node)
		}
		if len(nodes) == 0 {
			t.Fatalf("m=%d: no support-matched candidates", m)
		}
		samples = append(samples, sample{lr.Locked, nodes})
	}

	var cases, both, one, neither int
	for _, s := range samples {
		on, ms := coneOnSets(t, s.c, s.nodes)
		for h := 0; h <= slices.Max(ms); h++ {
			cands := make([]*candidate, len(s.nodes))
			for k, node := range s.nodes {
				cands[k] = newCandidate(node)
			}
			filterCandidates(context.Background(), s.c, cands, h)
			for k, cd := range cands {
				if h > ms[k] {
					continue
				}
				cases++
				want := [2]bool{sphereRule(on[k][0], h), sphereRule(on[k][1], h)}
				if cd.rejected != want {
					t.Fatalf("node %d m=%d h=%d: sweep rejected %v, full cone sweep %v (%d/%d on-set patterns)",
						cd.node, ms[k], h, cd.rejected, want, len(on[k][0]), len(on[k][1]))
				}
				switch {
				case want[0] && want[1]:
					both++
				case want[0] || want[1]:
					one++
				default:
					neither++
				}
			}
		}
	}
	t.Logf("%d cases: %d with both polarities rejected, %d with one, %d with neither", cases, both, one, neither)
	if both == 0 || one == 0 || neither == 0 {
		t.Error("inputs do not cover both, exactly one and neither polarity rejected")
	}
}

// Property: the shape filter is sound. For 2 <= m <= 12, every h in 0..m and
// several random cubes K, the sweep never rejects strip_h(K) in its
// positive polarity, and over all 2^m patterns offSphere marks exactly
// the patterns whose distance from a reference on-set point is odd or
// above 2h, and none of the on-set, for every on-set point as reference.
func TestShapeFilterKeepsTrueStrippers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for m := 2; m <= 12; m++ { // buildStripHD needs two inputs
		words := max(1<<m/64, 1)
		for h := 0; h <= m; h++ {
			for trial := 0; trial < 3; trial++ {
				cube := make([]bool, m)
				for i := range cube {
					cube[i] = rng.Intn(2) == 1
				}
				c := buildStripHD(m, h, cube)
				out := c.Outputs[0]
				ins := c.Inputs()
				cd := newCandidate(out)
				if filterCandidates(context.Background(), c, []*candidate{cd}, h); cd.rejected[0] {
					t.Fatalf("m=%d h=%d cube=%v: strip_h rejected in its positive polarity", m, h, cube)
				}
				// Every pattern p of 0..2^m-1 once: input i is bit i of p.
				vals := make([][]uint64, words)
				var onset []uint64
				for w := range vals {
					vals[w] = make([]uint64, c.Len())
					for i, in := range ins {
						for lane := 0; lane < 64; lane++ {
							vals[w][in] |= uint64((w*64+lane)>>i&1) << lane
						}
					}
					c.Simulate(vals[w])
					for on := vals[w][out]; on != 0; on &= on - 1 {
						onset = append(onset, uint64(w*64+bits.TrailingZeros64(on))&(1<<m-1))
					}
				}
				for _, r := range onset {
					ref := make([]uint64, m)
					for i := range ref {
						ref[i] = -(r >> i & 1)
					}
					for w := range vals {
						far := offSphere(vals[w], ins, ref, h)
						for lane := 0; lane < 64; lane++ {
							d := bits.OnesCount64(uint64(w*64+lane)&(1<<m-1) ^ r)
							if want := d%2 == 1 || d > 2*h; far>>lane&1 == 1 != want {
								t.Fatalf("m=%d h=%d: offSphere lane %d of word %d = %v, distance %d",
									m, h, lane, w, !want, d)
							}
						}
						if far&vals[w][out] != 0 {
							t.Fatalf("m=%d h=%d cube=%v: on-set points off the sphere", m, h, cube)
						}
					}
				}
			}
		}
	}
}

// Every cell the shape filter rejects on SFLL-HD locks, at each of the
// paper's h levels, is one the unfiltered path (the selected analysis,
// then the equivalence check) also rejects.
func TestShapeFilterRejectsOnlyNonStrippers(t *testing.T) {
	specs := genbench.Scaled(genbench.TableI, 16, 12)
	for _, spec := range []genbench.Spec{specs[0], specs[3]} { // ex1010 (m=10), c432 (m=12)
		orig, err := genbench.Generate(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		m := spec.Keys
		for _, h := range []int{0, max(m/8, 1), max(m/4, 1), max(m/3, 1)} {
			lr, err := lock.SFLLHD(orig, lock.Options{KeySize: m, H: h, Seed: int64(h + 3), Optimize: true})
			if err != nil {
				t.Fatal(err)
			}
			cands := supportCandidates(lr.Locked)
			filterCandidates(context.Background(), lr.Locked, cands, h)
			opts := Options{H: h}
			rejected := 0
			for _, cd := range cands {
				for pol, neg := range []bool{false, true} {
					if cd.keydep || !cd.rejected[pol] {
						continue
					}
					rejected++
					actx, err := newAnalysisContext(context.Background(), lr.Locked, cd.node, neg, &opts)
					if err != nil {
						t.Fatal(err)
					}
					cube, ok, _, err := runAnalysis(actx, m, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						continue
					}
					if okEq, err := actx.EquivalenceCheck(cube, h); err != nil || okEq {
						t.Fatalf("%s h=%d node %d neg=%v: rejected by the filter, but the equivalence check gives %v, %v",
							spec.Name, h, cd.node, neg, okEq, err)
					}
				}
			}
			t.Logf("%s m=%d h=%d: %d candidates, %d cells rejected", spec.Name, m, h, len(cands), rejected)
			if rejected == 0 {
				t.Errorf("%s h=%d: the filter rejected no cell", spec.Name, h)
			}
		}
	}
}

// The pre-pass decides every candidate, flags a key-dependent one and
// records each TFC's size, which is the node count of the cone a cell
// extracts; a grid over the candidates shortlists a key. Cells share no
// cone: each cell that passes the filter extracts its own.
func TestGridSharesAndReleasesCones(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := testcirc.Random(rng, 12, 120)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 12, H: 2, Seed: 102, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	comps := FindComparators(lr.Locked)
	pairing := buildPairing(lr.Locked, comps)
	opts := &Options{H: 2, Workers: 4}
	withKeyDep := func() []*candidate {
		// A comparator depends on a key input: the pre-pass must flag it.
		return append(supportCandidates(lr.Locked), newCandidate(comps[0].Node))
	}

	cands := withKeyDep()
	filterCandidates(context.Background(), lr.Locked, cands, opts.H)
	var keydep, rejected, passed int
	for _, cd := range cands {
		switch {
		case !cd.decided:
			t.Fatalf("node %d: pre-pass did not decide it", cd.node)
		case cd.keydep:
			keydep++
		case cd.rejected[0] && cd.rejected[1]:
			rejected++
		default:
			passed++
		}
		if cone, _ := lr.Locked.Cone(cd.node); cone.Len() != cd.coneLen {
			t.Errorf("node %d: cone has %d nodes, pre-pass TFC %d", cd.node, cone.Len(), cd.coneLen)
		}
	}
	if keydep != 1 || !cands[len(cands)-1].keydep || rejected == 0 || passed == 0 {
		t.Fatalf("vacuous: %d key-dependent, %d rejected, %d passing candidates", keydep, rejected, passed)
	}

	cands = withKeyDep()
	outcomes := runAnalysisGrid(context.Background(), lr.Locked, cands, 12, opts, pairing)
	keys := 0
	for _, oc := range outcomes {
		if oc.err != nil {
			t.Fatal(oc.err)
		}
		if oc.ok {
			keys++
		}
	}
	if keys == 0 {
		t.Fatal("grid shortlisted no key")
	}
}

// cancelAfter is a context that cancels itself on the n-th Err call:
// the pre-pass calls Err once per candidate, so it cancels part way
// through the pre-pass.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int32
}

func newCancelAfter(n int32) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfter{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// A grid whose pre-pass was cut short reports ErrTimeout from its cells
// and leaves the candidates it never reached undecided.
func TestGridCancelledInPrePass(t *testing.T) {
	_, lr := lockFig2a(t, 1, 11)
	comps := FindComparators(lr.Locked)
	pairing := buildPairing(lr.Locked, comps)
	for _, workers := range []int{1, 4} {
		cands := supportCandidates(lr.Locked)
		if len(cands) < 3 {
			t.Fatalf("need at least 3 candidates, got %d", len(cands))
		}
		ctx := newCancelAfter(2)
		outcomes := runAnalysisGrid(ctx, lr.Locked, cands, 4, &Options{H: 1, Workers: workers}, pairing)
		decided := 0
		for _, cd := range cands {
			if cd.decided {
				decided++
			}
		}
		if decided == 0 || decided == len(cands) {
			t.Errorf("workers=%d: pre-pass decided %d of %d candidates, want it cut part way", workers, decided, len(cands))
		}
		timeouts := 0
		for i, oc := range outcomes {
			switch {
			case oc.err == ErrTimeout:
				timeouts++
			case oc.err != nil || oc.ok:
				t.Errorf("workers=%d: cell %d ran after cancellation: %+v", workers, i, oc)
			}
		}
		if timeouts == 0 {
			t.Errorf("workers=%d: no cell reported ErrTimeout", workers)
		}
		ctx.cancel()
	}
}

// TestGridDispatchOrderDeterministic: the grid's units place every job
// in exactly one unit, and their dispatch order is a pure function of
// the circuit and h: a second pre-pass and grouping repeat it exactly.
func TestGridDispatchOrderDeterministic(t *testing.T) {
	_, lr := lockFig2a(t, 1, 11)
	units := func() [][]int {
		cands := supportCandidates(lr.Locked)
		filterCandidates(context.Background(), lr.Locked, cands, 1)
		var jobs []analysisJob
		for _, cd := range cands {
			jobs = append(jobs, analysisJob{cd, false}, analysisJob{cd, true})
		}
		return gridUnits(jobs, 1)
	}
	a, b := units(), units()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("unit order differs between computations:\n%v\n%v", a, b)
	}
	jobs := 2 * len(supportCandidates(lr.Locked))
	seen := make([]int, jobs)
	for _, u := range a {
		if len(u) == 0 {
			t.Fatal("empty unit")
		}
		for _, i := range u {
			seen[i]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("job %d sits in %d units, want 1", i, n)
		}
	}
}
