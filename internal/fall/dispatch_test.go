package fall

import (
	"context"
	"math/bits"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
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

// coneOnCounts is the reference density count: the filter's patterns
// simulated on the extracted cone, all 16384 of them, no early exit. It
// returns the cumulative on-count of the positive polarity after each
// word (on[w] after w words) and the input count m.
func coneOnCounts(c *circuit.Circuit, node int) (on []int, m int) {
	cone, _ := c.Cone(node)
	ins := cone.Inputs()
	rng := densityRNG(cone.Len(), len(ins))
	vals := make([]uint64, cone.Len())
	on = make([]int, densityWords+1)
	for w := 0; w < densityWords; w++ {
		for _, in := range ins {
			vals[in] = rng.Uint64()
		}
		cone.Simulate(vals)
		on[w+1] = on[w] + bits.OnesCount64(vals[cone.Outputs[0]])
	}
	return on, len(ins)
}

// Property: for every h in 0..m, the one netlist sweep's two verdicts
// equal a full 16384-pattern count per polarity on the extracted cone,
// over random cones and the support-matched (popcount and stripper)
// nodes of SFLL-HD locks. The inputs cover early rejections, early
// acceptances and thresholds that skip simulation altogether.
func TestDensityVerdictsMatchFullConeCount(t *testing.T) {
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

	var cases, earlyReject, earlyAccept, skipped int
	for _, s := range samples {
		// Scratch reused across candidates, as the pre-pass's pool does,
		// and poisoned so a read outside the TFC would show.
		scratch := make([]uint64, s.c.Len())
		for i := range scratch {
			scratch[i] = rng.Uint64()
		}
		for _, node := range s.nodes {
			on, m := coneOnCounts(s.c, node)
			tfc := s.c.TFC(node)
			ins := s.c.Support(node)
			for h := 0; h <= m; h++ {
				cases++
				threshold := densityThreshold(densityWords*64, m, h)
				got := densityVerdicts(s.c, tfc, ins, node, h, scratch)
				stop := 0 // word after which the sweep may stop
				for pol := 0; pol < 2; pol++ {
					count := func(w int) int {
						if pol == 1 {
							return 64*w - on[w]
						}
						return on[w]
					}
					want := float64(count(densityWords)) > threshold
					if got[pol] != want {
						t.Fatalf("node %d m=%d h=%d polarity %d: sweep dense=%v, full cone count %d vs threshold %.1f",
							node, m, h, pol, got[pol], count(densityWords), threshold)
					}
					w := 0
					for w < densityWords && float64(count(w)) <= threshold && float64(count(w)+64*(densityWords-w)) > threshold {
						w++
					}
					if w > stop {
						stop = w
					}
					switch {
					case w < densityWords && want:
						earlyReject++
					case w > 0 && w < densityWords && !want:
						earlyAccept++
					}
				}
				if stop == 0 {
					skipped++
				}
			}
		}
	}
	t.Logf("%d cases: %d early rejections, %d early acceptances, %d without simulation", cases, earlyReject, earlyAccept, skipped)
	if earlyReject == 0 || earlyAccept == 0 || skipped == 0 {
		t.Error("inputs do not cover early rejection, early acceptance and the skipped sweep")
	}
}

// A candidate's cells share one cone, extracted only by a cell that
// passes the filter and dropped with the prefixes after the last such
// cell; after a completed grid no candidate holds a cone, input map or
// prefix cache.
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
	filterCandidates(context.Background(), lr.Locked, cands, opts.H, 1)
	var keydep, rejected, passed int
	for _, cd := range cands {
		cd.pending.Add(1) // hold the cone past the cells to inspect it
		for _, neg := range []bool{false, true} {
			if oc := analyzeCell(context.Background(), lr.Locked, analysisJob{cd, neg}, 12, opts, pairing); oc.err != nil {
				t.Fatalf("node %d neg=%v: %v", cd.node, neg, oc.err)
			}
		}
		switch {
		case !cd.decided:
			t.Fatalf("node %d: pre-pass did not decide it", cd.node)
		case cd.keydep:
			keydep++
		case cd.dense[0] && cd.dense[1]:
			rejected++
		default:
			passed++
		}
		wantCone := !cd.keydep && !(cd.dense[0] && cd.dense[1])
		if (cd.cone != nil) != wantCone {
			t.Errorf("node %d (keydep=%v dense=%v): cone extracted=%v, want %v",
				cd.node, cd.keydep, cd.dense, cd.cone != nil, wantCone)
		}
		if cd.cone != nil && cd.cone.Len() != cd.coneLen {
			t.Errorf("node %d: cone has %d nodes, pre-pass TFC %d", cd.node, cd.cone.Len(), cd.coneLen)
		}
		if n := cd.pending.Load(); n != 1 {
			t.Errorf("node %d: %d references after both cells, want only the test's", cd.node, n)
		}
		cd.cellDone()
		if cd.cone != nil || cd.pre != nil {
			t.Errorf("node %d: cone or prefixes kept after the last reference", cd.node)
		}
	}
	if keydep != 1 || rejected == 0 || passed == 0 {
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
	for _, cd := range cands {
		if cd.cone != nil || cd.inputMap != nil || cd.inputs != nil || cd.pre != nil {
			t.Errorf("node %d: cone or prefixes still held after the grid", cd.node)
		}
		if n := cd.pending.Load(); n != 0 {
			t.Errorf("node %d: %d cells pending after the grid", cd.node, n)
		}
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
