package fall

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"repro/internal/circuit"
	"repro/internal/genbench"
	"repro/internal/lock"
)

// referenceKeys is the grid without units: every cell that passes the
// pre-pass runs its own analysis and equivalence check, in job order,
// and the keys merge by signature as Attack merges them. It returns the
// shortlist and every cell's outcome, indexed like the grid's jobs.
func referenceKeys(t *testing.T, c *circuit.Circuit, cands []*candidate, m, h int) ([]CandidateKey, []analysisOutcome) {
	t.Helper()
	pairing := buildPairing(c, FindComparators(c))
	opts := Options{H: h}
	var keys []CandidateKey
	var outcomes []analysisOutcome
	seen := map[string]bool{}
	for _, cd := range cands {
		for _, neg := range []bool{false, true} {
			oc := analyzeCellInner(context.Background(), c, analysisJob{cd, neg}, m, &opts, pairing, nil)
			if oc.err != nil {
				t.Fatal(oc.err)
			}
			outcomes = append(outcomes, oc)
			if oc.ok && !seen[oc.key.Signature()] {
				seen[oc.key.Signature()] = true
				keys = append(keys, oc.key)
			}
		}
	}
	return keys, outcomes
}

// keyRow renders what the shortlist pins of a key: its signature, cube,
// node, polarity and analysis.
func keyRow(k CandidateKey) string {
	return fmt.Sprintf("%s cube=%v node=%d neg=%v %s", k.Signature(), k.Cube, k.Node, k.Negated, k.Analysis)
}

// On SFLL-HD locks of ex1010 (m=10) and c432 (m=12) at the paper's four
// h levels, and on one lock with 2h = m, Attack's shortlist at one and
// four workers equals the reference grid's, key by key with node,
// polarity and analysis. Every cell the grid marks duplicate, run
// through its own analysis and check, ends with its unit's key or with
// no key; on the 2h = m lock no cell is marked.
func TestDuplicateCellsKeepShortlist(t *testing.T) {
	specs := genbench.Scaled(genbench.TableI, 16, 12)
	type row struct {
		spec genbench.Spec
		h    int
	}
	var rows []row
	for _, spec := range []genbench.Spec{specs[0], specs[3]} { // ex1010 (m=10), c432 (m=12)
		m := spec.Keys
		for _, h := range []int{0, max(m/8, 1), max(m/4, 1), max(m/3, 1)} {
			rows = append(rows, row{spec, h})
		}
	}
	rows = append(rows, row{specs[3], specs[3].Keys / 2})
	dups := 0
	for _, r := range rows {
		orig, err := genbench.Generate(r.spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, h := r.spec.Keys, r.h
		lr, err := lock.SFLLHD(orig, lock.Options{KeySize: m, H: h, Seed: int64(h + 3), Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s h=%d", r.spec.Name, h)

		cands := supportCandidates(lr.Locked)
		filterCandidates(context.Background(), lr.Locked, cands, h)
		want, ref := referenceKeys(t, lr.Locked, cands, m, h)
		if len(want) == 0 && 2*h != m {
			t.Fatalf("%s: the reference shortlisted no key", name)
		}
		for _, workers := range []int{1, 4} {
			res, err := Attack(context.Background(), lr.Locked, Options{H: h, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Keys) != len(want) {
				t.Fatalf("%s workers=%d: %d keys, reference %d", name, workers, len(res.Keys), len(want))
			}
			for i := range want {
				if got, w := keyRow(res.Keys[i]), keyRow(want[i]); got != w {
					t.Errorf("%s workers=%d: key %d is %s, reference %s", name, workers, i, got, w)
				}
			}
		}

		cands = supportCandidates(lr.Locked)
		grid := runAnalysisGrid(context.Background(), lr.Locked, cands, m, &Options{H: h, Workers: 4}, buildPairing(lr.Locked, FindComparators(lr.Locked)))
		var jobs []analysisJob
		for _, cd := range cands {
			jobs = append(jobs, analysisJob{cd, false}, analysisJob{cd, true})
		}
		marked := 0
		for _, unit := range gridUnits(jobs, h) {
			var proved map[int]bool
			for _, i := range unit {
				oc := grid[i]
				switch {
				case oc.err != nil:
					t.Fatal(oc.err)
				case oc.dup:
					marked++
					if proved == nil {
						t.Fatalf("%s: cell %d marked duplicate before its unit proved a key", name, i)
					}
					if ref[i].ok && !maps.Equal(ref[i].cube, proved) {
						t.Errorf("%s: duplicate cell %d yields cube %v on its own, its unit proved %v", name, i, ref[i].cube, proved)
					}
				case oc.ok && proved == nil:
					proved = oc.cube
				}
			}
		}
		t.Logf("%s: %d candidates, %d keys, %d cells marked duplicate", name, len(cands), len(want), marked)
		if 2*h == m && marked != 0 {
			t.Errorf("%s: %d cells marked duplicate at 2h = m", name, marked)
		}
		dups += marked
	}
	if dups == 0 {
		t.Error("no cell was marked duplicate on any lock")
	}
}

// stripperCell is a decided grid cell for the positive polarity of
// strip_h(cube) over m fresh inputs, with the cube as a map over the
// circuit's input ids.
func stripperCell(t *testing.T, m, h int, cube []bool) (*circuit.Circuit, analysisJob, map[int]bool) {
	t.Helper()
	c := buildStripHD(m, h, cube)
	cd := newCandidate(c.Outputs[0])
	filterCandidates(context.Background(), c, []*candidate{cd}, h)
	if !cd.passes(false) {
		t.Fatalf("m=%d h=%d: strip_h did not pass the pre-pass", m, h)
	}
	k := map[int]bool{}
	for i, in := range c.Inputs() {
		k[in] = cube[i]
	}
	return c, analysisJob{cand: cd, neg: false}, k
}

// A cell checks itself against its unit's proved cube only behind both
// guards, and is marked duplicate only when the miter proves it equal:
// strip_h(K) is a duplicate of K, but not of a different cube over the
// same inputs, not of a cube over other inputs that the miter would read
// as K, and, at 2h = m, not of ¬K, whose sphere it also is. Each cell
// that is not marked runs its own analysis.
func TestSameStripperGuards(t *testing.T) {
	cube := []bool{true, false, true, true, false, false}
	m := len(cube)
	run := func(c *circuit.Circuit, job analysisJob, h int, proved map[int]bool) analysisOutcome {
		t.Helper()
		oc := analyzeCellInner(context.Background(), c, job, m, &Options{H: h}, buildPairing(c, nil), proved)
		if oc.err != nil {
			t.Fatal(oc.err)
		}
		return oc
	}
	miter := func(c *circuit.Circuit, job analysisJob, h int, k map[int]bool) bool {
		t.Helper()
		actx, err := newAnalysisContext(context.Background(), c, job.cand.node, job.neg, &Options{H: h})
		if err != nil {
			t.Fatal(err)
		}
		eq, err := actx.EquivalenceCheck(k, h)
		if err != nil {
			t.Fatal(err)
		}
		return eq
	}

	const h = 1
	c, job, k := stripperCell(t, m, h, cube)
	if oc := run(c, job, h, k); !oc.dup {
		t.Fatalf("strip_1(K) with K proven: %+v, want a duplicate", oc)
	}
	if oc := run(c, job, h, nil); !oc.ok || !maps.Equal(oc.cube, k) {
		t.Fatalf("strip_1(K) alone: %+v, want key K", oc)
	}

	other := maps.Clone(k)
	other[c.Inputs()[0]] = !other[c.Inputs()[0]]
	if oc := run(c, job, h, other); oc.dup || !oc.ok || !maps.Equal(oc.cube, k) {
		t.Errorf("strip_1(K) with another cube proven: %+v, want its own key K", oc)
	}

	// Input 1 is 0 in K, so a cube that lacks it reads as K in the miter.
	shifted := maps.Clone(k)
	delete(shifted, c.Inputs()[1])
	shifted[c.Outputs[0]] = false
	if !miter(c, job, h, shifted) {
		t.Fatal("vacuous: the miter does not read the shifted cube as K")
	}
	if oc := run(c, job, h, shifted); oc.dup || !oc.ok || !maps.Equal(oc.cube, k) {
		t.Errorf("strip_1(K) with a cube over other inputs proven: %+v, want its own key K", oc)
	}

	c, job, k = stripperCell(t, m, m/2, cube)
	notK := map[int]bool{}
	for in, v := range k {
		notK[in] = !v
	}
	if !miter(c, job, m/2, notK) {
		t.Fatal("vacuous: strip_{m/2}(K) is not strip_{m/2}(¬K)")
	}
	if oc := run(c, job, m/2, notK); oc.dup {
		t.Errorf("strip_{m/2}(K) with ¬K proven: %+v, want its own analysis to run", oc)
	}
}
