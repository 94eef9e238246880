// Command benchinfo prints structural statistics of a BENCH netlist:
// interface dimensions, gate histogram, depth, and key inputs.
//
// Usage:
//
//	benchinfo circuit.bench [more.bench ...]
//	benchinfo -strash circuit.bench   # also show post-strash size
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/aig"
	"repro/internal/bench"
)

func main() {
	// A bad flag exits 1 like any other usage error; -help exits 0.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	strash := flag.Bool("strash", false, "also report post-strash (AIG) statistics")
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(1)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchinfo [-strash] FILE...")
		os.Exit(1)
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchinfo: %v\n", err)
			os.Exit(1)
		}
		c, err := bench.Parse(f, path)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchinfo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s:\n", path)
		fmt.Printf("  inputs: %d (%d key), outputs: %d\n",
			len(c.Inputs()), len(c.KeyInputs()), len(c.Outputs))
		fmt.Printf("  gates: %d, depth: %d\n", c.NumGates(), c.Depth())
		counts := c.GateCounts()
		types := make([]string, 0, len(counts))
		byName := map[string]int{}
		for t, n := range counts {
			types = append(types, t.String())
			byName[t.String()] = n
		}
		sort.Strings(types)
		fmt.Printf("  histogram:")
		for _, t := range types {
			fmt.Printf(" %s=%d", t, byName[t])
		}
		fmt.Println()
		if *strash {
			opt := aig.Strash(c)
			fmt.Printf("  post-strash: %d gates, depth %d\n", opt.NumGates(), opt.Depth())
		}
	}
}
