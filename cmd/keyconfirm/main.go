// Command keyconfirm runs the key confirmation algorithm (paper §V) on a
// locked BENCH netlist: given candidate key files (keyinputN=0/1 lines,
// as written by lockgen or fallattack output redirection), it confirms
// which candidate (if any) is consistent with the oracle.
//
// Usage:
//
//	keyconfirm -locked locked.bench -oracle original.bench key1.txt key2.txt
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
	"repro/internal/circuit"
	"repro/internal/keyconfirm"
	"repro/internal/obs"
	"repro/internal/oracle"
)

func main() {
	var (
		lockedPath = flag.String("locked", "", "locked circuit in BENCH format")
		oraclePath = flag.String("oracle", "", "original circuit in BENCH format (simulated activated IC)")
		timeout    = flag.Duration("timeout", 1000*time.Second, "time budget (0 = none)")
		pureAlg4   = flag.Bool("pure", false, "disable the double-DIP acceleration (paper Algorithm 4 verbatim)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "key-space partitions searched concurrently in phi=true mode (1 = serial)")
		sf         = attack.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	if *lockedPath == "" || *oraclePath == "" {
		fatalf("need -locked FILE and -oracle FILE")
	}
	locked := parse(*lockedPath)
	orig := parse(*oraclePath)

	var cands []attack.Key
	for _, path := range flag.Args() {
		k, err := attack.ReadKeyFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		cands = append(cands, k)
	}
	if len(cands) == 0 {
		fmt.Fprintln(os.Stderr, "keyconfirm: no candidate key files; running with phi=true (full SAT attack mode)")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := sf.Start("keyconfirm", "locked", *lockedPath, "candidates", len(cands)); err != nil {
		fatalf("%v", err)
	}
	atk := keyconfirm.New(keyconfirm.Options{DisableDoubleDIP: *pureAlg4})
	res, err := atk.Run(obs.With(ctx, sf.Root), attack.Target{
		Locked:     locked,
		Oracle:     oracle.NewSim(orig),
		Candidates: cands,
		Workers:    *workers,
		Solver:     sf.Setup.Factory(),
	})
	if err != nil {
		fatalf("%v", err)
	}
	sf.Finish(os.Stderr, res.Status.String())
	fmt.Printf("status: %s, iterations: %d, oracle queries: %d, elapsed: %v\n",
		res.Status, res.Iterations, res.OracleQueries, res.Elapsed.Round(time.Millisecond))
	if res.Status == attack.StatusTimeout {
		fmt.Println("timed out before a verdict")
		os.Exit(2)
	}
	if !res.UniqueKey() {
		fmt.Println("⊥ — no candidate key is consistent with the oracle")
		os.Exit(3)
	}
	key := res.Keys[0]
	fmt.Println("confirmed key:")
	names := make([]string, 0, len(key))
	for n := range key {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := 0
		if key[n] {
			v = 1
		}
		fmt.Printf("  %s=%d\n", n, v)
	}
}

func parse(path string) *circuit.Circuit {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	c, err := bench.Parse(f, path)
	if err != nil {
		fatalf("parse %s: %v", path, err)
	}
	return c
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "keyconfirm: "+format+"\n", args...)
	os.Exit(1)
}
