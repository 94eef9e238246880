// Command fallattack runs the FALL attack (structural + functional
// analyses) on a locked BENCH netlist and prints the shortlisted keys.
// Key inputs must be named keyinput*.
//
// Usage:
//
//	fallattack -in locked.bench -h 4 [-analysis auto|unate|window|dist2h] \
//	           [-timeout 1000s] [-enc adder|seq] [-workers N] \
//	           [-solver spec] [-portfolio N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/fall"
	"repro/internal/obs"
)

func main() {
	var (
		inPath   = flag.String("in", "", "locked circuit in BENCH format")
		h        = flag.Int("h", 0, "Hamming distance parameter of the locking scheme")
		analysis = flag.String("analysis", "auto", "functional analysis: auto | unate | window | dist2h")
		timeout  = flag.Duration("timeout", 1000*time.Second, "attack time budget (0 = none)")
		enc      = flag.String("enc", "adder", "cardinality encoding: adder | seq")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "candidate analyses run concurrently (1 = serial; shortlist is identical either way)")
		sf       = attack.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	if *inPath == "" {
		fatalf("need -in FILE")
	}
	f, err := os.Open(*inPath)
	if err != nil {
		fatalf("%v", err)
	}
	locked, err := bench.Parse(f, *inPath)
	f.Close()
	if err != nil {
		fatalf("parse: %v", err)
	}
	if len(locked.KeyInputs()) == 0 {
		fatalf("no key inputs (named keyinput*) in %s", *inPath)
	}

	var opts fall.Options
	switch *analysis {
	case "auto":
		opts.Analysis = fall.Auto
	case "unate":
		opts.Analysis = fall.Unateness
	case "window":
		opts.Analysis = fall.SlidingWindow
	case "dist2h":
		opts.Analysis = fall.Distance2H
	default:
		fatalf("unknown analysis %q", *analysis)
	}
	switch *enc {
	case "adder":
		opts.Enc = cnf.AdderTree
	case "seq":
		opts.Enc = cnf.SeqCounter
	default:
		fatalf("unknown encoding %q", *enc)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := sf.Start("fallattack", "locked", *inPath, "h", *h); err != nil {
		fatalf("%v", err)
	}
	out, err := fall.New(opts).Run(obs.With(ctx, sf.Root), attack.Target{Locked: locked, H: *h, Workers: *workers, Solver: sf.Setup.Factory()})
	if err != nil {
		fatalf("attack: %v", err)
	}
	sf.Finish(os.Stderr, out.Status.String())
	res := out.Details.(*fall.Result)
	fmt.Printf("status: %s\n", out.Status)
	fmt.Printf("comparators: %d (pairing %d circuit inputs)\n", len(res.Comparators), len(res.CompX))
	fmt.Printf("candidate cube-stripper gates: %d\n", len(res.Candidates))
	fmt.Printf("stage times: comparators %v, matching %v, analyses %v (total %v)\n",
		res.ComparatorTime.Round(time.Millisecond), res.MatchTime.Round(time.Millisecond),
		res.AnalysisTime.Round(time.Millisecond), res.Total.Round(time.Millisecond))
	if out.Status == attack.StatusTimeout {
		fmt.Println("timed out before completing all analyses — shortlist may be incomplete")
	}
	if len(res.Keys) == 0 {
		fmt.Println("no keys shortlisted: attack failed on this netlist")
		os.Exit(2)
	}
	fmt.Printf("shortlisted %d key(s)%s:\n", len(res.Keys), uniqNote(out))
	for i, ck := range res.Keys {
		fmt.Printf("key %d (via %s, node %d):\n", i+1, ck.Analysis, ck.Node)
		names := make([]string, 0, len(ck.Key))
		for n := range ck.Key {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := 0
			if ck.Key[n] {
				v = 1
			}
			fmt.Printf("  %s=%d\n", n, v)
		}
	}
	if out.Status == attack.StatusTimeout {
		os.Exit(2)
	}
}

func uniqNote(res *attack.Result) string {
	if res.UniqueKey() {
		return " — unique, no oracle access needed"
	}
	return " — use key confirmation with an oracle to pick the correct one"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fallattack: "+format+"\n", args...)
	os.Exit(1)
}
