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

func shortlistSignatures(res *Result) []string {
	sigs := make([]string, len(res.Keys))
	for i := range res.Keys {
		sigs[i] = res.Keys[i].Signature()
	}
	return sigs
}

// TestAttackHeterogeneousGridMatchesDefault runs every
// candidate×polarity cell of a multi-worker FALL grid on the stub
// DIMACS solver behind the process pipe, and requires the shortlist to
// be byte-identical to the default internal-engine run. Under `go test
// -race` this is the acceptance check that ProcessEngine runs safely
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

	setup := &attack.SolverSetup{Spec: sat.EngineSpec{Kind: sat.EngineProcess, Cmd: stub}}
	het, err := Attack(context.Background(), lr.Locked, Options{
		H: 2, Workers: 4, Solver: setup.Factory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := shortlistSignatures(het), shortlistSignatures(base)
	if len(got) != len(want) {
		t.Fatalf("stub run shortlisted %d keys, default engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("shortlist[%d] differs: %q vs %q", i, got[i], want[i])
		}
	}
	if setup.SolveTime() == 0 {
		t.Error("no solve time recorded — factory not used?")
	}
}
