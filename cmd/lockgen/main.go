// Command lockgen locks a combinational circuit with TTLock, SFLL-HDh,
// RLL, SARLock or Anti-SAT and writes the locked netlist in BENCH format
// plus the correct key.
//
// Usage:
//
//	lockgen -in circuit.bench -algo sfll -keys 32 -h 4 -seed 1 \
//	        -out locked.bench -keyout key.txt
//
// With -gen NAME instead of -in, the circuit is generated from the
// built-in Table I benchmark suite (e.g. -gen c432).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/genbench"
	"repro/internal/lock"
)

func main() {
	// A bad flag exits 1 like any other usage error; -help exits 0.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	var (
		inPath  = flag.String("in", "", "input circuit in BENCH format")
		genName = flag.String("gen", "", "generate a Table I benchmark by name instead of reading -in")
		algo    = flag.String("algo", "sfll", "locking algorithm: ttlock | sfll | rll | sarlock | antisat")
		keys    = flag.Int("keys", 16, "key size in bits")
		h       = flag.Int("h", 0, "Hamming distance parameter for sfll")
		seed    = flag.Int64("seed", 1, "random seed")
		noOpt   = flag.Bool("no-opt", false, "skip AIG structural-hash optimization")
		outPath = flag.String("out", "", "output locked BENCH file (default stdout)")
		keyOut  = flag.String("keyout", "", "output key file (default stderr)")
	)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(1)
	}

	var orig *circuit.Circuit
	switch {
	case *genName != "":
		spec, ok := genbench.ByName(*genName)
		if !ok {
			fatalf("unknown benchmark %q", *genName)
		}
		var err error
		orig, err = genbench.Generate(spec, *seed)
		if err != nil {
			fatalf("generate: %v", err)
		}
	case *inPath != "":
		f, err := os.Open(*inPath)
		if err != nil {
			fatalf("%v", err)
		}
		orig, err = bench.Parse(f, *inPath)
		f.Close()
		if err != nil {
			fatalf("parse: %v", err)
		}
	default:
		fatalf("need -in FILE or -gen NAME")
	}

	opts := lock.Options{KeySize: *keys, H: *h, Seed: *seed, Optimize: !*noOpt}
	if *algo == "none" {
		// Emit the (generated or parsed) circuit unlocked — the oracle
		// netlist for cmd/attack's -oracle.
		out := os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			out = f
		}
		if err := bench.Write(out, orig); err != nil {
			fatalf("write: %v", err)
		}
		return
	}
	var res *lock.Result
	var err error
	switch *algo {
	case "ttlock":
		res, err = lock.TTLock(orig, opts)
	case "sfll":
		res, err = lock.SFLLHD(orig, opts)
	case "rll":
		res, err = lock.RandomXOR(orig, opts)
	case "sarlock":
		res, err = lock.SARLock(orig, opts)
	case "antisat":
		res, err = lock.AntiSAT(orig, opts)
	default:
		fatalf("unknown algorithm %q", *algo)
	}
	if err != nil {
		fatalf("lock: %v", err)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		out = f
	}
	if err := bench.Write(out, res.Locked); err != nil {
		fatalf("write: %v", err)
	}

	keyDst := os.Stderr
	if *keyOut != "" {
		f, err := os.Create(*keyOut)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		keyDst = f
	}
	names := make([]string, 0, len(res.Key))
	for n := range res.Key {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := 0
		if res.Key[n] {
			v = 1
		}
		fmt.Fprintf(keyDst, "%s=%d\n", n, v)
	}
	fmt.Fprintf(os.Stderr, "locked %s with %s: %d gates -> %d gates, %d key bits\n",
		orig.Name, res.Algorithm, orig.NumGates(), res.Locked.NumGates(), len(res.Key))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lockgen: "+format+"\n", args...)
	os.Exit(1)
}
