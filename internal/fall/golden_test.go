package fall

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/genbench"
	"repro/internal/lock"
)

// golden is one pinned FALL answer: the support-matched candidate
// count, each shortlisted key's node, polarity and analysis in
// shortlist order ("611+AnalyzeUnateness", "-" for the complement), and
// an FNV-64a hash over the candidate ids and every key's Signature(),
// Cube, Node, Negated and Analysis.
type golden struct {
	cands int
	keys  string
	hash  uint64
}

// goldenHosts are the Table I hosts the golden locks are built on, at the
// benchmark suite's scale.
var goldenHosts = []string{"ex1010", "c432", "c3540"}

// goldenAnswer renders an Attack result as a golden row.
func goldenAnswer(res *Result) golden {
	hs := fnv.New64a()
	fmt.Fprintf(hs, "candidates %v\n", res.Candidates)
	var keys []string
	for _, k := range res.Keys {
		names := make([]string, 0, len(k.Cube))
		for n := range k.Cube {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(hs, "key %s node=%d neg=%v analysis=%s cube=", k.Signature(), k.Node, k.Negated, k.Analysis)
		for _, n := range names {
			fmt.Fprintf(hs, "%s=%v;", n, k.Cube[n])
		}
		hs.Write([]byte{'\n'})
		sign := "+"
		if k.Negated {
			sign = "-"
		}
		keys = append(keys, fmt.Sprintf("%d%s%s", k.Node, sign, k.Analysis))
	}
	return golden{len(res.Candidates), strings.Join(keys, " "), hs.Sum64()}
}

// TestGoldenAnswers pins FALL's answers (candidates and every key's
// signature, cube, node, polarity and analysis) on SFLL-HD locks of
// three scaled Table I hosts at the paper's four h levels, at one and
// four workers. A pre-pass filter that only drops cells which could
// never pass the equivalence check, or a change to scheduling, leaves
// this table untouched; a change to an answer shows up here first.
func TestGoldenAnswers(t *testing.T) {
	specs := genbench.Scaled(genbench.TableI, 16, 12)
	for _, host := range goldenHosts {
		idx := -1
		for i, s := range specs {
			if s.Name == host {
				idx = i
			}
		}
		spec := specs[idx]
		orig, err := genbench.Generate(spec, 2019+int64(idx)*1009)
		if err != nil {
			t.Fatal(err)
		}
		m := spec.Keys
		for li, level := range []struct {
			name string
			h    int
		}{{"hd0", 0}, {"m8", max(m/8, 1)}, {"m4", max(m/4, 1)}, {"m3", max(m/3, 1)}} {
			lr, err := lock.SFLLHD(orig, lock.Options{KeySize: m, H: level.h, Seed: int64(31 + li), Optimize: true})
			if err != nil {
				t.Fatal(err)
			}
			name := host + "/" + level.name
			want, pinned := goldenAnswers[name]
			for _, workers := range []int{1, 4} {
				res, err := Attack(context.Background(), lr.Locked, Options{H: level.h, Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if got := goldenAnswer(res); !pinned || got != want {
					t.Errorf("%s workers=%d: answer changed\n got  %q: {%d, %q, %#x},\n want %+v",
						name, workers, name, got.cands, got.keys, got.hash, want)
				}
			}
		}
	}
}

// goldenAnswers holds the recorded answers, keyed by host and h level.
var goldenAnswers = map[string]golden{
	"ex1010/hd0": {220, "394+AnalyzeUnateness", 0x9299df52f6d9b06b},
	"ex1010/m8":  {281, "577+Distance2H", 0x5dcad1274cac16ae},
	"ex1010/m4":  {281, "577+Distance2H", 0xad99ba9482e24962},
	"ex1010/m3":  {282, "577+SlidingWindow", 0xd943929984466265},
	"c432/hd0":   {2, "352+AnalyzeUnateness", 0x61d0c195a604142e},
	"c432/m8":    {63, "586+Distance2H", 0xed699a00b465d8e6},
	"c432/m4":    {64, "587+Distance2H", 0x994cfa543e8427da},
	"c432/m3":    {63, "586+SlidingWindow", 0x4d10ab0dac570fa9},
	"c3540/hd0":  {2, "444+AnalyzeUnateness", 0xdf81f5a811734e57},
	"c3540/m8":   {63, "678+Distance2H", 0xb8d6bd58a4aa6558},
	"c3540/m4":   {64, "679+Distance2H", 0x4ef3f18dd7dba205},
	"c3540/m3":   {63, "678+SlidingWindow", 0x83c51de1463fff53},
}
