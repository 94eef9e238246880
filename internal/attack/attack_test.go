package attack_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	_ "repro/internal/attack/all"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/testcirc"
)

func TestRegistryHasAllBuiltins(t *testing.T) {
	want := []string{"doubledip", "fall", "keyconfirm", "sat", "sps"}
	got := attack.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", got, want)
		}
	}
	for _, n := range want {
		a, err := attack.Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if a.Name() != n {
			t.Errorf("Get(%q).Name() = %q", n, a.Name())
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, err := attack.Get("no-such-attack"); err == nil {
		t.Fatal("Get of unknown attack succeeded")
	} else if !strings.Contains(err.Error(), "no-such-attack") {
		t.Errorf("error %q does not name the missing attack", err)
	}
	if _, err := attack.Run(context.Background(), "no-such-attack", attack.Target{}); err == nil {
		t.Fatal("Run of unknown attack succeeded")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	a, err := attack.Get("fall")
	if err != nil {
		t.Fatal(err)
	}
	attack.Register(a)
}

func TestOracleRequiredValidation(t *testing.T) {
	orig := testcirc.Fig2a()
	lr, err := lock.TTLock(orig, lock.Options{KeySize: 4, Seed: 7, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range attack.Names() {
		a, err := attack.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.NeedsOracle() {
			if _, err := a.Run(context.Background(), attack.Target{Locked: lr.Locked}); err == nil {
				t.Errorf("%s: Run without oracle succeeded", name)
			}
		}
		// A netlist with no key inputs is rejected for every attack.
		if _, err := a.Run(context.Background(), attack.Target{Locked: orig, Oracle: oracle.NewSim(orig)}); err == nil {
			t.Errorf("%s: Run on a circuit with no key inputs succeeded", name)
		}
	}
	// A missing circuit is rejected for every attack.
	if _, err := attack.Run(context.Background(), "fall", attack.Target{}); err == nil {
		t.Error("Run without locked circuit succeeded")
	}
}

// TestEveryAttackOnTTLock drives every registered attack against the same
// small TTLock instance through the unified API — the "add a scheme, get
// every attack for free" contract.
func TestEveryAttackOnTTLock(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	orig := testcirc.Random(rng, 10, 80)
	lr, err := lock.TTLock(orig, lock.Options{KeySize: 8, Seed: 4, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	complement := make(attack.Key, len(lr.Key))
	for k, v := range lr.Key {
		complement[k] = !v
	}
	tests := []struct {
		name       string
		wantStatus []attack.Status
		wantKey    bool // correct key must appear in Keys
	}{
		{"fall", []attack.Status{attack.StatusUniqueKey, attack.StatusShortlist}, true},
		{"sat", []attack.Status{attack.StatusUniqueKey}, false}, // any I/O-equivalent key
		{"doubledip", []attack.Status{attack.StatusUniqueKey, attack.StatusShortlist}, false},
		{"keyconfirm", []attack.Status{attack.StatusUniqueKey}, true},
		{"sps", []attack.Status{attack.StatusRecovered}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			tgt := attack.Target{
				Locked:     lr.Locked,
				Oracle:     oracle.NewSim(orig),
				H:          0,
				Seed:       5,
				Candidates: []attack.Key{complement, lr.Key},
			}
			res, err := attack.Run(ctx, tc.name, tgt)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Attack != tc.name {
				t.Errorf("Result.Attack = %q, want %q", res.Attack, tc.name)
			}
			okStatus := false
			for _, st := range tc.wantStatus {
				if res.Status == st {
					okStatus = true
				}
			}
			if !okStatus {
				t.Fatalf("status = %v, want one of %v (result %+v)", res.Status, tc.wantStatus, res)
			}
			if tc.wantKey {
				found := false
				for _, key := range res.Keys {
					if attack.KeysEqual(key, lr.Key) {
						found = true
					}
				}
				if !found {
					t.Errorf("correct key not among %d returned keys", len(res.Keys))
				}
			}
			if res.Status == attack.StatusRecovered && res.Recovered == nil {
				t.Error("StatusRecovered without a recovered netlist")
			}
			if res.UniqueKey() && len(res.Keys) != 1 {
				t.Errorf("UniqueKey() with %d keys", len(res.Keys))
			}
		})
	}
}

// TestKeyconfirmIterationCapInconclusive checks the adapter maps an
// iteration-capped run to StatusInconclusive, not StatusTimeout: an
// effort bound is not wall-clock expiry, and harness censoring relies on
// the distinction.
func TestKeyconfirmIterationCapInconclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	orig := testcirc.Random(rng, 14, 100)
	lr, err := lock.TTLock(orig, lock.Options{KeySize: 12, Seed: 3, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := attack.Run(ctx, "keyconfirm", attack.Target{
		Locked:        lr.Locked,
		Oracle:        oracle.NewSim(orig),
		MaxIterations: 1, // φ = true over 2^12 keys cannot converge in 1 DI
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != attack.StatusInconclusive {
		t.Errorf("status = %v, want inconclusive (iteration cap is not a timeout)", res.Status)
	}
}

// TestCancellationReturnsPartialResult cancels each attack mid-run and
// checks it comes back promptly with a StatusTimeout partial result
// rather than blocking or erroring.
func TestCancellationReturnsPartialResult(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := testcirc.Random(rng, 18, 150)
	// 2^16 TTLock: far too big to finish in 50ms for the oracle-guided
	// attacks, and large enough that FALL's SAT queries notice too.
	lr, err := lock.TTLock(orig, lock.Options{KeySize: 16, Seed: 11, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fall", "sat", "doubledip", "keyconfirm"} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // already cancelled: the attack must not start working
			start := time.Now()
			res, err := attack.Run(ctx, name, attack.Target{
				Locked: lr.Locked,
				Oracle: oracle.NewSim(orig),
			})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("cancelled run errored: %v", err)
			}
			if res == nil {
				t.Fatal("cancelled run returned nil result")
			}
			if res.Status != attack.StatusTimeout {
				t.Errorf("status = %v, want timeout", res.Status)
			}
			if elapsed > 10*time.Second {
				t.Errorf("cancelled run took %v to return", elapsed)
			}
		})
	}
}
