// Repo-level integration tests exercising the public surface the way the
// cmd tools and a downstream user would: BENCH files in, attacks out,
// across locking schemes and both SAT-engine and BDD-engine analyses.
package repro

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/fall"
	"repro/internal/genbench"
	"repro/internal/keyconfirm"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/satattack"
	"repro/internal/testcirc"
)

// testCtx returns a context bounding one attack stage of a test.
func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestEndToEndViaBenchFiles mirrors the lockgen | attack -name fall pipeline:
// lock, serialize to BENCH, re-parse (losing all in-memory metadata), and
// attack the re-parsed netlist.
func TestEndToEndViaBenchFiles(t *testing.T) {
	spec, _ := genbench.ByName("c432")
	spec = genbench.Scaled([]genbench.Spec{spec}, 4, 14)[0]
	orig, err := genbench.Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{0, 2} {
		lr, err := lock.SFLLHD(orig, lock.Options{KeySize: spec.Keys, H: h, Seed: 9, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		text := bench.WriteString(lr.Locked)
		reparsed, err := bench.ParseString(text, "locked")
		if err != nil {
			t.Fatalf("h=%d: reparse: %v\n%s", h, err, text[:200])
		}
		if got, want := len(reparsed.KeyInputs()), spec.Keys; got != want {
			t.Fatalf("h=%d: reparsed key inputs = %d, want %d", h, got, want)
		}
		res, err := fall.Attack(testCtx(t, 60*time.Second), reparsed, fall.Options{H: h})
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		found := false
		for _, ck := range res.Keys {
			match := len(ck.Key) == len(lr.Key)
			for k, v := range lr.Key {
				if ck.Key[k] != v {
					match = false
					break
				}
			}
			if match {
				found = true
			}
		}
		if !found {
			t.Errorf("h=%d: key not recovered through BENCH round trip (%d keys)", h, len(res.Keys))
		}
	}
}

// TestFullPipelineWithConfirmation drives the complete paper pipeline:
// FALL shortlist (possibly several keys) -> key confirmation -> validated
// unlock.
func TestFullPipelineWithConfirmation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	orig := testcirc.Random(rng, 16, 150)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 14, H: 3, Seed: 77, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fall.Attack(testCtx(t, 60*time.Second), lr.Locked, fall.Options{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) == 0 {
		t.Fatal("FALL stage produced no candidates")
	}
	var cands []map[string]bool
	for _, ck := range res.Keys {
		cands = append(cands, ck.Key)
	}
	orc := oracle.NewSim(orig)
	conf, err := keyconfirm.Confirm(testCtx(t, 60*time.Second), lr.Locked, cands, orc, keyconfirm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !conf.Confirmed {
		t.Fatalf("confirmation rejected all %d FALL candidates", len(cands))
	}
	if err := oracle.CheckKey(lr.Locked, oracle.NewSim(orig), conf.Key, 512, 5); err != nil {
		t.Errorf("confirmed key fails validation: %v", err)
	}
}

// TestSATvsBDDEngineAgree cross-checks the two exact engines on stripper
// cones: the BDD unateness cube must match the SAT-based attack's cube.
func TestSATvsBDDEngineAgree(t *testing.T) {
	orig := testcirc.Fig2a()
	lr, err := lock.TTLock(orig, lock.Options{KeySize: 4, Seed: 21, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fall.Attack(context.Background(), lr.Locked, fall.Options{H: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 1 {
		t.Fatalf("want unique key, got %d", len(res.Keys))
	}
	satCube := res.Keys[0].Cube
	// BDD engine on the same candidate node.
	node := res.Keys[0].Node
	target := lr.Locked
	cone, im := target.Cone(node)
	if res.Keys[0].Negated {
		// Negate by adding a NOT at the output.
		out := cone.MustGate("negout", circuit.Not, cone.Outputs[0])
		cone.Outputs[0] = out
	}
	cube, ok, err := bdd.CubeFromUnateness(cone, 0)
	if err != nil || !ok {
		t.Fatalf("BDD engine failed: ok=%v err=%v", ok, err)
	}
	for ci, origID := range im {
		name := target.Nodes[origID].Name
		if cube[ci] != satCube[name] {
			t.Errorf("engines disagree on %s: bdd=%v sat=%v", name, cube[ci], satCube[name])
		}
	}
}

// TestAttackMatrix runs the combined attack across every locking scheme,
// documenting which schemes FALL applies to.
func TestAttackMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := testcirc.Random(rng, 12, 100)
	type row struct {
		name     string
		lockFn   func() (*lock.Result, error)
		h        int
		expected bool // FALL expected to recover the key
	}
	rows := []row{
		{"ttlock", func() (*lock.Result, error) {
			return lock.TTLock(orig, lock.Options{KeySize: 10, Seed: 1, Optimize: true})
		}, 0, true},
		{"sfll-hd2", func() (*lock.Result, error) {
			return lock.SFLLHD(orig, lock.Options{KeySize: 10, H: 2, Seed: 2, Optimize: true})
		}, 2, true},
		{"rll", func() (*lock.Result, error) {
			return lock.RandomXOR(orig, lock.Options{KeySize: 10, Seed: 3, Optimize: true})
		}, 0, false},
	}
	for _, r := range rows {
		lr, err := r.lockFn()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res, err := fall.Attack(testCtx(t, 60*time.Second), lr.Locked, fall.Options{H: r.h})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := false
		for _, ck := range res.Keys {
			match := len(ck.Key) == len(lr.Key)
			for k, v := range lr.Key {
				if ck.Key[k] != v {
					match = false
					break
				}
			}
			if match {
				got = true
			}
		}
		if got != r.expected {
			t.Errorf("%s: FALL recovered=%v, expected %v", r.name, got, r.expected)
		}
		// Whatever FALL does, the SAT attack must still break RLL.
		if r.name == "rll" {
			sa, err := satattack.Run(testCtx(t, 30*time.Second), lr.Locked, oracle.NewSim(orig), satattack.Options{})
			if err != nil || !sa.Solved {
				t.Errorf("rll: SAT attack failed: %v %+v", err, sa)
			}
		}
	}
}

// TestBenchFilesAreWellFormed spot-checks the serialized suite: every
// generated+locked circuit must survive a BENCH round trip functionally.
func TestBenchFilesAreWellFormed(t *testing.T) {
	specs := genbench.Scaled(genbench.TableI, 16, 10)[:5]
	for _, spec := range specs {
		orig, err := genbench.Generate(spec, 3)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		lr, err := lock.SFLLHD(orig, lock.Options{KeySize: spec.Keys, H: 1, Seed: 4, Optimize: true})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		text := bench.WriteString(lr.Locked)
		back, err := bench.ParseString(text, spec.Name)
		if err != nil {
			t.Fatalf("%s: reparse: %v", spec.Name, err)
		}
		if !testcirc.EquivalentByName(lr.Locked, back, 64, 11) {
			t.Errorf("%s: BENCH round trip changed function", spec.Name)
		}
		if strings.Count(text, "INPUT(") != len(lr.Locked.Inputs()) {
			t.Errorf("%s: INPUT count mismatch", spec.Name)
		}
	}
}
