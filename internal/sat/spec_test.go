package sat

import "testing"

// engineSpecForms lists every spelling of the grammar with the spec it
// parses to.
var engineSpecForms = []struct {
	spec string
	want EngineSpec
}{
	{"", InternalSpec(Config{})},
	{"seed=3,restart=geometric", InternalSpec(Config{Seed: 3, Restart: RestartGeometric})},
	{"internal", InternalSpec(Config{})},
	{"internal:seed=7", InternalSpec(Config{Seed: 7})},
	{"kissat", EngineSpec{Kind: EngineProcess, Cmd: "kissat"}},
	{"kissat:path=/usr/local/bin/kissat", EngineSpec{Kind: EngineProcess, Cmd: "/usr/local/bin/kissat"}},
	{"process:cmd=/tmp/solver", EngineSpec{Kind: EngineProcess, Cmd: "/tmp/solver"}},
}

// badEngineSpecs lists specs the grammar must reject.
var badEngineSpecs = []string{
	"frobnicate=1",          // unknown internal config key
	"internal:frobnicate=1", // same, explicit kind
	"vdecay=NaN",
	"bdd", // the removed BDD engine: a reserved word, not a binary
	"bdd:max-nodes=4096",
	"bdd:max-nodes=1<<20",
	"bdd:max-nodes=0",
	"bdd:max-nodes=x",
	"bdd:max-nodes=8388609<<40",
	"bdd:color=red",
	"kissat:persistent=true", // removed persistent sessions
	"kissat:persistent=false",
	"process:cmd=/tmp/solver,persistent=true",
	"kissat:persistent=maybe",
	"process:cmd=/tmp/s,persistent=2",
	"process",         // no cmd
	"process:cmd=",    // empty cmd
	"kissat:cmd=",     // empty cmd, bare-name spelling
	"process:wrong=1", // unknown key
	"kissat:verbose=1",
	"a b",  // whitespace in a bare name
	"a\v:", // trailing white space in a bare name
	"a,b:", // comma in a bare name
}

func TestParseEngineSpecForms(t *testing.T) {
	for _, c := range engineSpecForms {
		got, err := ParseEngineSpec(c.spec)
		if err != nil {
			t.Errorf("ParseEngineSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEngineSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// Canonical strings round-trip.
		again, err := ParseEngineSpec(got.String())
		if err != nil || again != got {
			t.Errorf("round trip of %q via %q: %+v, %v", c.spec, got.String(), again, err)
		}
	}
}

func TestParseEngineSpecRejectsBadSpecs(t *testing.T) {
	for _, spec := range badEngineSpecs {
		if got, err := ParseEngineSpec(spec); err == nil {
			t.Errorf("ParseEngineSpec(%q) accepted a bad spec: %+v", spec, got)
		}
	}
}

// FuzzParseEngineSpec: every spec that parses renders, through String,
// a canonical spec that parses back to an equal engine — the property
// campaign plans rely on when they record a spec on one machine and run
// it on another. Plain go test replays the seeds and the corpus under
// testdata/fuzz.
func FuzzParseEngineSpec(f *testing.F) {
	for _, c := range engineSpecForms {
		f.Add(c.spec)
	}
	for _, spec := range badEngineSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseEngineSpec(spec)
		if err != nil {
			return
		}
		again, err := ParseEngineSpec(s.String())
		if err != nil {
			t.Fatalf("ParseEngineSpec(%q) = %+v renders %q, which does not parse: %v", spec, s, s.String(), err)
		}
		if again != s {
			t.Fatalf("ParseEngineSpec(%q) = %+v renders %q, which parses to %+v", spec, s, s.String(), again)
		}
	})
}
