package genbench

import (
	"testing"

	"repro/internal/lock"
)

func TestTableIDimensions(t *testing.T) {
	if len(TableI) != 20 {
		t.Fatalf("Table I has %d rows, want 20", len(TableI))
	}
	// Spot-check against the paper.
	checks := map[string][4]int{ // in, out, keys, gates
		"c432":  {36, 7, 36, 209},
		"dalu":  {75, 16, 64, 1202},
		"des":   {256, 245, 64, 3839},
		"c7552": {207, 108, 64, 2074},
	}
	for name, want := range checks {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		got := [4]int{s.Inputs, s.Outputs, s.Keys, s.Gates}
		if got != want {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
	// Keys = min(inputs, 64) per the paper.
	for _, s := range TableI {
		want := s.Inputs
		if want > 64 {
			want = 64
		}
		if s.Keys != want {
			t.Errorf("%s: keys = %d, want min(in,64) = %d", s.Name, s.Keys, want)
		}
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	for _, s := range Scaled(TableI, 8, 24) {
		c, err := Generate(s, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := len(c.PrimaryInputs()); got != s.Inputs {
			t.Errorf("%s: inputs = %d, want %d", s.Name, got, s.Inputs)
		}
		if got := len(c.Outputs); got != s.Outputs {
			t.Errorf("%s: outputs = %d, want %d", s.Name, got, s.Outputs)
		}
		if got := c.NumGates(); got != s.Gates {
			t.Errorf("%s: gates = %d, want %d", s.Name, got, s.Gates)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestGenerateFullSupportOutput(t *testing.T) {
	// Every generated circuit must be lockable with spec.Keys bits:
	// some output must depend on at least that many inputs.
	for _, s := range Scaled(TableI, 8, 24) {
		c, err := Generate(s, 7)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		best := 0
		for _, o := range c.Outputs {
			if n := len(c.Support(o)); n > best {
				best = n
			}
		}
		if best < s.Keys {
			t.Errorf("%s: widest output support %d < keys %d", s.Name, best, s.Keys)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByName("c432")
	c1, err := Generate(s, 99)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Generate(s, 99)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Len() != c2.Len() {
		t.Fatal("same seed produced different sizes")
	}
	for i := range c1.Nodes {
		if c1.Nodes[i].Type != c2.Nodes[i].Type {
			t.Fatalf("node %d type differs", i)
		}
	}
	c3, err := Generate(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	same := c1.Len() == c3.Len()
	if same {
		for i := range c1.Nodes {
			if c1.Nodes[i].Type != c3.Nodes[i].Type || len(c1.Nodes[i].Fanins) != len(c3.Nodes[i].Fanins) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical circuits")
	}
}

func TestGeneratedCircuitsLockable(t *testing.T) {
	// End-to-end: every scaled suite member must accept SFLL locking at
	// its spec'd key size.
	for _, s := range Scaled(TableI, 16, 12)[:6] {
		c, err := Generate(s, 3)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		h := s.Keys / 4
		lr, err := lock.SFLLHD(c, lock.Options{KeySize: s.Keys, H: h, Seed: 5, Optimize: true})
		if err != nil {
			t.Fatalf("%s: lock: %v", s.Name, err)
		}
		if got := len(lr.Locked.KeyInputs()); got != s.Keys {
			t.Errorf("%s: locked key inputs = %d, want %d", s.Name, got, s.Keys)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{Name: "bad", Inputs: 1, Outputs: 1, Gates: 10}, 0); err == nil {
		t.Error("1-input spec accepted")
	}
	if _, err := Generate(Spec{Name: "bad", Inputs: 10, Outputs: 5, Gates: 3}, 0); err == nil {
		t.Error("impossible gate budget accepted")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a ghost")
	}
}

func TestScaledCapsKeys(t *testing.T) {
	sc := Scaled(TableI, 4, 16)
	for _, s := range sc {
		if s.Keys > 16 {
			t.Errorf("%s: keys = %d after cap 16", s.Name, s.Keys)
		}
		if s.Gates < 60 {
			t.Errorf("%s: gates = %d below floor", s.Name, s.Gates)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, name := range []string{"paper", "medium", "small", "tiny"} {
		specs, err := ParseScale(name)
		if err != nil || len(specs) == 0 {
			t.Errorf("ParseScale(%q) = %d specs, %v", name, len(specs), err)
		}
	}
	if specs, _ := ParseScale("paper"); len(specs) != len(TableI) {
		t.Error("paper scale is not Table I")
	}
	if specs, _ := ParseScale("tiny"); len(specs) != 6 {
		t.Errorf("tiny scale has %d specs, want 6", len(specs))
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted huge")
	}
}
