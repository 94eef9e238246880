package fall

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/lock"
	"repro/internal/sat"
	"repro/internal/sat/testsolver"
	"repro/internal/testcirc"
)

// TestAttackHeterogeneousGridMatchesDefault races both backend kinds —
// the internal CDCL engine and the stub DIMACS solver behind the
// process pipe — inside every candidate×polarity cell of a
// multi-worker FALL grid, and requires the shortlist to be
// byte-identical to the default single-engine run. Under `go test
// -race` this is the acceptance check that ProcessEngine races safely
// inside the grid.
func TestAttackHeterogeneousGridMatchesDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a solver process per grid query")
	}
	stub := testsolver.Build(t)
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

	setup := attack.NewSolverSetupEngines([]sat.EngineSpec{
		sat.InternalSpec(sat.Config{}),
		{Kind: sat.EngineProcess, Cmd: stub},
	})
	het, err := Attack(context.Background(), lr.Locked, Options{
		H: 2, Workers: 4, Solver: setup.Factory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := shortlistSignatures(het), shortlistSignatures(base)
	if len(got) != len(want) {
		t.Fatalf("heterogeneous run shortlisted %d keys, single engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("shortlist[%d] differs: %q vs %q", i, got[i], want[i])
		}
	}
	stats := setup.WinStats()
	if len(stats) != 2 {
		t.Fatalf("win stats for %d engines, want 2", len(stats))
	}
	var races, wins int64
	for _, cs := range stats {
		races += cs.Races
		wins += cs.Wins
	}
	if races == 0 || wins == 0 {
		t.Errorf("no races recorded (races %d, wins %d) — factory not used?", races, wins)
	}
}
