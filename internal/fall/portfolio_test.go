package fall

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/lock"
	"repro/internal/testcirc"
)

func shortlistSignatures(res *Result) []string {
	sigs := make([]string, len(res.Keys))
	for i := range res.Keys {
		sigs[i] = res.Keys[i].Signature()
	}
	return sigs
}

// TestAttackPortfolioGridMatchesDefault runs the full FALL pipeline
// with every candidate×polarity cell racing a per-query portfolio on a
// multi-worker grid, and requires the shortlist to be byte-identical to
// the default single-engine run — the grid-level form of the
// portfolio-verdict-equality acceptance criterion (and, under `go test
// -race`, the concurrency check for per-cell portfolios).
func TestAttackPortfolioGridMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := testcirc.Random(rng, 12, 120)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 12, H: 2, Seed: 102, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Attack(context.Background(), lr.Locked, Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	setup, err := attack.SolverSetupFromFlags("seed=9", "3")
	if err != nil {
		t.Fatal(err)
	}
	port, err := Attack(context.Background(), lr.Locked, Options{
		H: 2, Workers: 4, Solver: setup.Factory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := shortlistSignatures(port), shortlistSignatures(base)
	if len(got) != len(want) {
		t.Fatalf("portfolio run shortlisted %d keys, single engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("shortlist[%d] differs: %q vs %q", i, got[i], want[i])
		}
	}
	stats := setup.WinStats()
	if len(stats) != 3 {
		t.Fatalf("win stats for %d configs, want 3", len(stats))
	}
	var wins, races int64
	for _, cs := range stats {
		wins += cs.Wins
		races += cs.Races
	}
	if races == 0 || wins == 0 {
		t.Errorf("no races recorded (races %d, wins %d) — factory not used?", races, wins)
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
