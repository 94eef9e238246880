package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/oracle"
)

// verifyKey decides whether key unlocks the instance by two independent
// means: equality with the planted key or the attack.KeyEquivalent SAT
// miter, and bit-parallel simulation against the original circuit. Both
// are exact for SFLL-HD locks, so a key that passes one and fails the
// other means one of them is wrong, and that is an error.
func verifyKey(ctx context.Context, cs *exp.Case, key attack.Key, seed int64) (bool, error) {
	equivalent := attack.KeysEqual(key, cs.Lock.Key)
	if !equivalent {
		var err error
		if equivalent, err = attack.KeyEquivalent(ctx, cs.Lock.Locked, cs.Orig, key); err != nil {
			return false, err
		}
	}
	simulated, err := simulateKey(cs, key, seed)
	if err != nil {
		return false, err
	}
	if equivalent != simulated {
		return false, fmt.Errorf("%s/%s: key %v: equivalence check says %v, simulation says %v",
			cs.Spec.Name, cs.Level.Token(), key, equivalent, simulated)
	}
	return equivalent, nil
}

// protectedMasks[j] sets bit b exactly when bit j of b is set: word w of
// an enumeration of 2^m patterns gives protected input j < 6 this word,
// and input j >= 6 all ones when bit j-6 of w is set.
var protectedMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// simulateKey compares the locked circuit under key with the original,
// 64 patterns at a time, on every assignment of the lock's protected
// inputs; the other primary inputs take values drawn from seed. An
// SFLL-HD lock changes the original function only through its protected
// inputs, so the comparison is exhaustive for it.
func simulateKey(cs *exp.Case, key attack.Key, seed int64) (bool, error) {
	locked, orig := cs.Lock.Locked, cs.Orig
	outIdx, err := attack.OutputIndex(locked, oracle.NewSim(orig))
	if err != nil {
		return false, err
	}
	lv := make([]uint64, locked.Len())
	ov := make([]uint64, orig.Len())
	for _, k := range locked.KeyInputs() {
		v, ok := key[locked.Nodes[k].Name]
		if !ok {
			return false, fmt.Errorf("key misses bit %q", locked.Nodes[k].Name)
		}
		if v {
			lv[k] = ^uint64(0)
		}
	}
	protected := make(map[string]int, len(cs.Lock.ProtectedInputs))
	for j, name := range cs.Lock.ProtectedInputs {
		protected[name] = j
	}
	rng := rand.New(rand.NewSource(seed))
	words := 1
	if m := len(protected); m > 6 {
		words = 1 << (m - 6)
	}
	for w := 0; w < words; w++ {
		for _, pi := range orig.PrimaryInputs() {
			name := orig.Nodes[pi].Name
			word := rng.Uint64()
			if j, ok := protected[name]; ok {
				switch {
				case j < 6:
					word = protectedMasks[j]
				case w>>(j-6)&1 == 1:
					word = ^uint64(0)
				default:
					word = 0
				}
			}
			id, ok := locked.NodeByName(name)
			if !ok {
				return false, fmt.Errorf("locked circuit has no input %q", name)
			}
			ov[pi], lv[id] = word, word
		}
		orig.Simulate(ov)
		locked.Simulate(lv)
		for i, o := range locked.Outputs {
			if lv[o] != ov[orig.Outputs[outIdx[i]]] {
				return false, nil
			}
		}
	}
	return true, nil
}
