// Package genbench generates the benchmark circuit suite used by the
// experiments. The paper evaluates on ISCAS'85 and MCNC circuits
// (Table I); those netlists are not redistributable here, so this package
// builds deterministic synthetic stand-ins with the same interface
// dimensions (#inputs, #outputs, #keys) and approximately the same gate
// counts. Every FALL analysis targets the inserted locking logic, so the
// host circuit's exact function is immaterial to the attack shape; the
// synthetic hosts provide the same optimization noise and SAT load.
package genbench

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
)

// Spec mirrors one row of the paper's Table I.
type Spec struct {
	Name    string
	Inputs  int
	Outputs int
	Keys    int
	Gates   int // original circuit gate count
}

// TableI lists the 20 benchmark circuits of the paper's Table I with
// their input/output/key counts and original gate counts.
var TableI = []Spec{
	{"ex1010", 10, 10, 10, 2754},
	{"apex4", 10, 19, 10, 2886},
	{"c1908", 33, 25, 33, 414},
	{"c432", 36, 7, 36, 209},
	{"apex2", 39, 3, 39, 345},
	{"c1355", 41, 32, 41, 504},
	{"seq", 41, 35, 41, 1964},
	{"c499", 41, 32, 41, 400},
	{"k2", 46, 45, 46, 1474},
	{"c3540", 50, 22, 50, 1038},
	{"c880", 60, 26, 60, 327},
	{"dalu", 75, 16, 64, 1202},
	{"i9", 88, 63, 64, 591},
	{"i8", 133, 81, 64, 1725},
	{"c5315", 178, 123, 64, 1773},
	{"i4", 192, 6, 64, 246},
	{"i7", 199, 67, 64, 663},
	{"c7552", 207, 108, 64, 2074},
	{"c2670", 233, 140, 64, 717},
	{"des", 256, 245, 64, 3839},
}

// ByName returns the Table I spec with the given circuit name.
func ByName(name string) (Spec, bool) {
	for _, s := range TableI {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ParseScale maps a CLI scale name to its benchmark specs. It is the
// single definition of the paper/medium/small/tiny suites, shared by
// cmd/fallbench and cmd/campaign — the two must agree or a merged
// campaign could never be byte-identical to a monolithic run of "the
// same" scale.
func ParseScale(name string) ([]Spec, error) {
	switch name {
	case "paper":
		return TableI, nil
	case "medium":
		return Scaled(TableI, 4, 24), nil
	case "small":
		return Scaled(TableI, 8, 16), nil
	case "tiny":
		return Scaled(TableI, 16, 12)[:6], nil
	}
	return nil, fmt.Errorf("genbench: unknown scale %q (want paper, medium, small or tiny)", name)
}

// Scaled returns a copy of specs with gate counts divided by factor
// (minimum floor gates) and key sizes capped at maxKeys, for quick
// experiment runs. Interface dimensions are reduced only as far as the
// key cap requires.
func Scaled(specs []Spec, factor int, maxKeys int) []Spec {
	out := make([]Spec, len(specs))
	for i, s := range specs {
		g := s.Gates / factor
		min := s.Inputs + s.Outputs
		if g < min {
			g = min
		}
		if g < 60 {
			g = 60
		}
		k := s.Keys
		if k > maxKeys {
			k = maxKeys
		}
		out[i] = Spec{Name: s.Name, Inputs: s.Inputs, Outputs: s.Outputs, Keys: k, Gates: g}
	}
	return out
}

// Generate builds a deterministic synthetic circuit matching the spec's
// interface dimensions, with gate count equal to spec.Gates. The circuit
// always contains at least one output whose support covers every input,
// so SFLL locking with up to min(Inputs, Keys) key bits is possible.
func Generate(spec Spec, seed int64) (*circuit.Circuit, error) {
	if spec.Inputs < 2 || spec.Outputs < 1 {
		return nil, fmt.Errorf("genbench: %s: need >= 2 inputs and >= 1 output", spec.Name)
	}
	minGates := (spec.Inputs - 1) + spec.Outputs
	if spec.Gates < minGates {
		return nil, fmt.Errorf("genbench: %s: %d gates cannot host spine+outputs (need >= %d)", spec.Name, spec.Gates, minGates)
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(spec.Name))<<32))
	c := circuit.New(spec.Name)
	ins := make([]int, spec.Inputs)
	for i := range ins {
		ins[i] = c.AddInput(fmt.Sprintf("x%d", i))
	}
	// XOR/XNOR spine: guarantees a full-support node.
	acc := ins[0]
	spineLen := spec.Inputs - 1
	spine := make([]int, 0, spineLen)
	for i := 1; i < spec.Inputs; i++ {
		t := circuit.Xor
		if rng.Intn(4) == 0 {
			t = circuit.Xnor
		}
		acc = c.MustGate(fmt.Sprintf("s%d", i), t, acc, ins[i])
		spine = append(spine, acc)
	}
	pool := append(append([]int(nil), ins...), spine...)
	// Random soup, biased toward recent nodes to build depth.
	soup := spec.Gates - spineLen - spec.Outputs
	types := []circuit.GateType{
		circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.And, circuit.Or, // weight simple gates higher
		circuit.Xor, circuit.Xnor, circuit.Not,
	}
	pick := func() int {
		if rng.Intn(3) > 0 && len(pool) > 16 {
			return pool[len(pool)-1-rng.Intn(16)]
		}
		return pool[rng.Intn(len(pool))]
	}
	for i := 0; i < soup; i++ {
		t := types[rng.Intn(len(types))]
		var id int
		if t == circuit.Not {
			id = c.MustGate(fmt.Sprintf("g%d", i), t, pick())
		} else {
			a, b := pick(), pick()
			for b == a {
				b = pick()
			}
			id = c.MustGate(fmt.Sprintf("g%d", i), t, a, b)
		}
		pool = append(pool, id)
	}
	// Output mixers: o0 combines the full-support spine tail; the rest
	// mix deep soup nodes.
	for i := 0; i < spec.Outputs; i++ {
		var a int
		if i == 0 {
			a = acc
		} else {
			a = pick()
		}
		b := pick()
		for b == a {
			b = pick()
		}
		t := circuit.Xor
		if i != 0 {
			t = types[rng.Intn(4)] // AND/NAND/OR/NOR for non-critical outputs
		}
		o := c.MustGate(fmt.Sprintf("o%d", i), t, a, b)
		c.MarkOutput(o)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("genbench: %s: %w", spec.Name, err)
	}
	return c, nil
}

// GenerateAll builds the full suite for the given specs with one seed per
// circuit derived from base.
func GenerateAll(specs []Spec, base int64) (map[string]*circuit.Circuit, error) {
	out := make(map[string]*circuit.Circuit, len(specs))
	for i, s := range specs {
		ckt, err := Generate(s, base+int64(i)*1009)
		if err != nil {
			return nil, err
		}
		out[s.Name] = ckt
	}
	return out, nil
}
