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
// the twenty scaled Table I hosts at the paper's four h levels, at one
// and four workers. A pre-pass filter that only drops cells which could
// never pass the equivalence check, or a change to scheduling, leaves
// this table untouched; a change to an answer shows up here first.
func TestGoldenAnswers(t *testing.T) {
	specs := genbench.Scaled(genbench.TableI, 16, 12)
	for idx, spec := range specs {
		host := spec.Name
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
	"apex4/hd0":  {237, "359+AnalyzeUnateness", 0xfd7683cf3a4f0d27},
	"apex4/m8":   {298, "542+Distance2H", 0x5e78bc3055c34b16},
	"apex4/m4":   {298, "542+Distance2H", 0x634dcc63052446a2},
	"apex4/m3":   {299, "542+SlidingWindow", 0x4479e207a2234fbc},
	"c1908/hd0":  {2, "312+AnalyzeUnateness", 0x16276d1efee666f},
	"c1908/m8":   {63, "546+Distance2H", 0xb75d0e60a7bf9257},
	"c1908/m4":   {64, "547+Distance2H", 0xb49eeafed65a26ec},
	"c1908/m3":   {63, "546+SlidingWindow", 0x4eb56e8f3c0663bb},
	"apex2/hd0":  {2, "364+AnalyzeUnateness", 0xb07da3d452851731},
	"apex2/m8":   {63, "598+Distance2H", 0x95be2017f485c6fc},
	"apex2/m4":   {64, "599+Distance2H", 0xfbbc5e4dd21d31cb},
	"apex2/m3":   {63, "598+SlidingWindow", 0xdfd434387e583aeb},
	"c1355/hd0":  {2, "384+AnalyzeUnateness", 0xf7df41703de2884},
	"c1355/m8":   {63, "618+Distance2H", 0xfb7ef1e153b296c7},
	"c1355/m4":   {64, "619+Distance2H", 0x256f611f64b1c7f2},
	"c1355/m3":   {63, "618+SlidingWindow", 0x22f6a08aa2b41070},
	"seq/hd0":    {2, "476+AnalyzeUnateness", 0x3cf28712b4ddc2ec},
	"seq/m8":     {63, "710+Distance2H", 0x77685bcfdaaf6381},
	"seq/m4":     {64, "711+Distance2H", 0xaa8fbd1738db59be},
	"seq/m3":     {63, "710+SlidingWindow", 0x3d4ba2e2d646183a},
	"c499/hd0":   {2, "381+AnalyzeUnateness", 0x144a36c18cee477f},
	"c499/m8":    {63, "615+Distance2H", 0xb73eb5a4442ebdd3},
	"c499/m4":    {64, "616+Distance2H", 0xf09d5eb9f7b87a4c},
	"c499/m3":    {63, "615+SlidingWindow", 0xf908f4a3fac21e90},
	"k2/hd0":     {2, "436+AnalyzeUnateness", 0xf82315074df2dcc2},
	"k2/m8":      {63, "670+Distance2H", 0x6446369a558efc64},
	"k2/m4":      {64, "671+Distance2H", 0x3ee897f80be5f748},
	"k2/m3":      {63, "670+SlidingWindow", 0x56dab5d8243e902},
	"c880/hd0":   {2, "530+AnalyzeUnateness", 0x73d4861e6bf8514e},
	"c880/m8":    {63, "764+Distance2H", 0x1d0ac8abc9f3f7c9},
	"c880/m4":    {64, "765+Distance2H", 0x4d29c2a302be8e6b},
	"c880/m3":    {63, "764+SlidingWindow", 0xbb6e91d88bffcf46},
	"dalu/hd0":   {2, "638+AnalyzeUnateness", 0xa65704ecef7993c1},
	"dalu/m8":    {63, "872+Distance2H", 0xb0395abd80b546fb},
	"dalu/m4":    {64, "873+Distance2H", 0x717a08b95ba5013d},
	"dalu/m3":    {63, "872+SlidingWindow", 0xd2f092137c8e2e1e},
	"i9/hd0":     {2, "788+AnalyzeUnateness", 0x73416adf512c758b},
	"i9/m8":      {63, "1022+Distance2H", 0x61153b77759433c2},
	"i9/m4":      {64, "1023+Distance2H", 0x5cb6819533692b7c},
	"i9/m3":      {63, "1022+SlidingWindow", 0x3c75a95c2acf74c8},
	"i8/hd0":     {2, "1168+AnalyzeUnateness", 0xe5077fea6be7a8fd},
	"i8/m8":      {63, "1402+Distance2H", 0x217ef2b1f4b26a9a},
	"i8/m4":      {64, "1403+Distance2H", 0x3f003e6fa4863e23},
	"i8/m3":      {63, "1402+SlidingWindow", 0xdd595b9207a2e12},
	"c5315/hd0":  {2, "1563+AnalyzeUnateness", 0x98686363b62175ff},
	"c5315/m8":   {63, "1797+Distance2H", 0x467fd32404511b9d},
	"c5315/m4":   {64, "1798+Distance2H", 0x236802f8f734ac68},
	"c5315/m3":   {63, "1797+SlidingWindow", 0xb130269051355468},
	"i4/hd0":     {2, "1562+AnalyzeUnateness", 0x6198cd78a8966c01},
	"i4/m8":      {63, "1796+Distance2H", 0x948515e9d2278202},
	"i4/m4":      {64, "1797+Distance2H", 0x27979489c9ba0a7a},
	"i4/m3":      {63, "1796+SlidingWindow", 0x8acfac7f9c393707},
	"i7/hd0":     {2, "1677+AnalyzeUnateness", 0x8a764feabca933b4},
	"i7/m8":      {63, "1911+Distance2H", 0xe11165263d0d945c},
	"i7/m4":      {64, "1912+Distance2H", 0xefff69956e65bf34},
	"i7/m3":      {63, "1911+SlidingWindow", 0xb7b87dd335141f69},
	"c7552/hd0":  {2, "1784+AnalyzeUnateness", 0x49f5f6aef0d93ab5},
	"c7552/m8":   {63, "2018+Distance2H", 0x6a833c34d13829ee},
	"c7552/m4":   {64, "2019+Distance2H", 0x4055cfc7bd5ee7f1},
	"c7552/m3":   {63, "2018+SlidingWindow", 0x9c7fb02926a63586},
	"c2670/hd0":  {2, "2019+AnalyzeUnateness", 0xb57a7325258d24ca},
	"c2670/m8":   {63, "2253+Distance2H", 0x1d20253c705b1c96},
	"c2670/m4":   {64, "2254+Distance2H", 0x9bc67888f1bfa58b},
	"c2670/m3":   {63, "2253+SlidingWindow", 0x6bbe265f3b17be04},
	"des/hd0":    {2, "2290+AnalyzeUnateness", 0x7b64b646ac108126},
	"des/m8":     {63, "2524+Distance2H", 0xb60b68882f603f10},
	"des/m4":     {64, "2525+Distance2H", 0x91378087b10c0cf2},
	"des/m3":     {63, "2524+SlidingWindow", 0x275ffcb366fd6a79},
}
