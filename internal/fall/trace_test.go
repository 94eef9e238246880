package fall

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/testcirc"
)

// TestTraceSpanIntegrity runs the FALL grid under a worker pool with
// tracing on and checks the emitted span tree is sound: unique ids,
// every child's parent emitted, the candidate pre-pass and the cells
// parented under the analysis phase, queries parented under their
// cell — the invariants tracestat relies on. Run under -race this also
// exercises concurrent span emission from the pool.
func TestTraceSpanIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := testcirc.Random(rng, 12, 120)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 12, H: 1, Seed: 5, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}

	ring := obs.NewRing(1 << 14)
	root := obs.New(ring).Start("attack")
	// Query spans are emitted by the solver-setup middleware; the cell
	// span reaches it through the engine build context.
	setup := &attack.SolverSetup{}
	setup.TraceTo(root)
	res, err := Attack(obs.With(context.Background(), root), lr.Locked,
		Options{H: 1, Workers: 4, Solver: setup.Factory()})
	if err != nil {
		t.Fatal(err)
	}
	if !containsCorrectKey(res, lr.Key) {
		t.Fatal("traced attack lost the key — tracing must not change behavior")
	}
	root.End()

	spans := ring.Snapshot()
	ids := map[uint64]string{}
	for _, sp := range spans {
		if _, dup := ids[sp.ID]; dup {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		ids[sp.ID] = sp.Name
	}
	var filters, cells, queries int
	for _, sp := range spans {
		if sp.Parent != 0 {
			if _, ok := ids[sp.Parent]; !ok {
				t.Errorf("span %d (%s) parented under unemitted %d", sp.ID, sp.Name, sp.Parent)
			}
		}
		switch sp.Name {
		case "fall.filter":
			filters++
			if ids[sp.Parent] != "fall.analysis" {
				t.Errorf("filter %d parented under %q, want fall.analysis", sp.ID, ids[sp.Parent])
			}
			if n, ok := sp.Attrs["candidates"].(int); !ok || n != len(res.Candidates) {
				t.Errorf("filter span decided %v candidates, want %d", sp.Attrs["candidates"], len(res.Candidates))
			}
		case "fall.cell":
			cells++
			if ids[sp.Parent] != "fall.analysis" {
				t.Errorf("cell %d parented under %q, want fall.analysis", sp.ID, ids[sp.Parent])
			}
		case "query":
			queries++
			if ids[sp.Parent] != "fall.cell" {
				t.Errorf("query %d parented under %q, want fall.cell", sp.ID, ids[sp.Parent])
			}
		}
	}
	if filters != 1 {
		t.Errorf("grid emitted %d fall.filter spans, want 1", filters)
	}
	if cells == 0 || queries == 0 {
		t.Fatalf("grid emitted %d cells, %d queries — tracing did not reach the workers", cells, queries)
	}
	if ring.Total() != int64(len(spans)) {
		t.Errorf("ring evicted spans (total %d, kept %d); raise the test capacity", ring.Total(), len(spans))
	}
}
