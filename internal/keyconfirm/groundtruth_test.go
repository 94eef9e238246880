package keyconfirm

import (
	"context"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/circuit"
	"repro/internal/genbench"
	"repro/internal/lock"
	"repro/internal/oracle"
)

// namedLock is one lock of the ground-truth test.
type namedLock struct {
	name string
	lr   *lock.Result
}

// groundTruthLocks locks one multi-output host (Table I's c432 at the
// benchmark's scale) with every lock family, each with a 6-bit key.
func groundTruthLocks(t *testing.T) (*circuit.Circuit, []namedLock) {
	t.Helper()
	spec, _ := genbench.ByName("c432")
	orig, err := genbench.Generate(genbench.Scaled([]genbench.Spec{spec}, 16, 12)[0], 77)
	if err != nil {
		t.Fatal(err)
	}
	opts := lock.Options{KeySize: 6, Seed: 3, Optimize: true}
	hd := func(h int) func(*circuit.Circuit, lock.Options) (*lock.Result, error) {
		return func(c *circuit.Circuit, o lock.Options) (*lock.Result, error) {
			o.H = h
			return lock.SFLLHD(c, o)
		}
	}
	families := []struct {
		name string
		lock func(*circuit.Circuit, lock.Options) (*lock.Result, error)
	}{
		{"ttlock", lock.TTLock},
		{"sfll-hd1", hd(1)},
		{"sfll-hd2", hd(2)},
		{"sarlock", lock.SARLock},
		{"antisat", lock.AntiSAT},
		{"randomxor", lock.RandomXOR},
		{"compound", func(c *circuit.Circuit, o lock.Options) (*lock.Result, error) {
			return lock.Compound(c, 3, 3, o.Seed, o.Optimize)
		}},
	}
	var locks []namedLock
	for _, f := range families {
		lr, err := f.lock(orig, opts)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		locks = append(locks, namedLock{f.name, lr})
	}
	return orig, locks
}

// wrongDecoys returns up to n keys that differ from the planted key in
// one bit each and that the equivalence miter proves wrong.
func wrongDecoys(t *testing.T, orig *circuit.Circuit, lr *lock.Result, n int) []map[string]bool {
	t.Helper()
	var decoys []map[string]bool
	for _, name := range lr.KeyNames {
		if len(decoys) == n {
			break
		}
		decoy := make(map[string]bool, len(lr.Key))
		for k, v := range lr.Key {
			decoy[k] = v
		}
		decoy[name] = !decoy[name]
		ok, err := attack.KeyEquivalent(context.Background(), lr.Locked, orig, decoy)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			decoys = append(decoys, decoy)
		}
	}
	if len(decoys) == 0 {
		t.Fatal("vacuous: no one-bit flip of the planted key is wrong")
	}
	return decoys
}

// mustBeCorrect fails unless res confirmed a key that unlocks the
// circuit.
func mustBeCorrect(t *testing.T, what string, orig *circuit.Circuit, lr *lock.Result, res *Result) {
	t.Helper()
	if !res.Confirmed {
		t.Fatalf("%s: not confirmed: %+v", what, res)
	}
	ok, err := attack.KeyEquivalent(context.Background(), lr.Locked, orig, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("%s: confirmed a wrong key %v", what, res.Key)
	}
}

// TestConfirmGroundTruth checks key confirmation against the equivalence
// miter on every lock family: a shortlist holding the planted key
// confirms a correct key, a shortlist of wrong keys only ends in ⊥, and
// φ = true confirms a correct key with and without the double-DIP phase
// and through the partitioned parallel run.
func TestConfirmGroundTruth(t *testing.T) {
	orig, locks := groundTruthLocks(t)
	for _, nl := range locks {
		lr := nl.lr
		t.Run(nl.name, func(t *testing.T) {
			orc := oracle.NewSim(orig)
			decoys := wrongDecoys(t, orig, lr, 3)
			cands := append([]map[string]bool{decoys[0]}, lr.Key)
			cands = append(cands, decoys[1:]...)
			res, err := Confirm(testCtx(t, 60*time.Second), lr.Locked, cands, orc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mustBeCorrect(t, "planted key and decoys", orig, lr, res)

			res, err = Confirm(testCtx(t, 60*time.Second), lr.Locked, decoys, orc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Confirmed || res.TimedOut || res.IterCapped {
				t.Fatalf("decoys only: want ⊥, got %+v", res)
			}

			for _, pure := range []bool{false, true} {
				res, err := Confirm(testCtx(t, 60*time.Second), lr.Locked, nil, orc, Options{DisableDoubleDIP: pure})
				if err != nil {
					t.Fatal(err)
				}
				what := "φ = true"
				if pure {
					what += ", pure Algorithm 4"
				}
				mustBeCorrect(t, what, orig, lr, res)
			}

			pres, err := ConfirmParallel(testCtx(t, 60*time.Second), lr.Locked, 2,
				func() oracle.Oracle { return oracle.NewSim(orig) }, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mustBeCorrect(t, "φ = true, 2 partition bits", orig, lr, &pres.Result)
		})
	}
}
