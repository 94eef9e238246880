package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"testing"

	"repro/internal/attack"
	"repro/internal/exp"
)

// TestDeterminism runs every workload twice on a reduced suite and
// requires identical counts and identical solved and completed fractions.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var runs [2]*report
			for i := range runs {
				cfg := config{workload: name, seed: 7, trace: true, dir: t.TempDir(), specs: suite()[:3]}
				rep, err := measure(context.Background(), cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if rep.gateErr != nil {
					t.Fatal(rep.gateErr)
				}
				if rep.failed != 0 {
					t.Fatalf("%d units failed", rep.failed)
				}
				runs[i] = rep
			}
			for _, name := range []string{"solved_frac", "completed_frac"} {
				if a, b := runs[0].endToEnd[name], runs[1].endToEnd[name]; a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
			for _, def := range perLayer {
				if def.unit != "count" || def.name == "runtime.gc_cycles" {
					continue
				}
				if a, b := runs[0].layers[def.name], runs[1].layers[def.name]; a != b {
					t.Errorf("%s: %v then %v", def.name, a, b)
				}
			}
		})
	}
}

// TestVerifyKey checks that the gate accepts the planted key and that
// both of its checks reject a key one bit away from it.
func TestVerifyKey(t *testing.T) {
	spec := suite()[3]
	for _, level := range exp.Levels {
		cs, err := lockCase(spec, level, suiteSeed, 11)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := verifyKey(context.Background(), cs, cs.Lock.Key, 1)
		if err != nil || !ok {
			t.Fatalf("%s: planted key: ok=%v err=%v", level.Token(), ok, err)
		}
		for _, key := range shortlist(cs.Lock.Key, cs.Lock.KeyNames, rand.New(rand.NewSource(3))) {
			ok, err := verifyKey(context.Background(), cs, key, 1)
			if err != nil {
				t.Fatalf("%s: %v", level.Token(), err)
			}
			if planted := attack.KeysEqual(key, cs.Lock.Key); ok != planted {
				t.Errorf("%s: key %v: verdict %v, planted %v", level.Token(), key, ok, planted)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics printed here in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, perfbench prints %d", len(c.declared), len(c.printed))
		}
		for i, m := range c.declared {
			if m.Name != c.printed[i].name || m.Unit != c.printed[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, perfbench %s %s", i, m.Name, m.Unit, c.printed[i].name, c.printed[i].unit)
			}
		}
	}
}
