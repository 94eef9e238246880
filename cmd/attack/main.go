// Command attack is the generic front end to the unified attack registry:
// any registered attack runs against any locked BENCH netlist through the
// same flags, so a new attack registered with the attack package gets a
// CLI for free.
//
// Usage:
//
//	attack -list
//	attack -name fall -locked locked.bench -h 4
//	attack -name sat -locked locked.bench -oracle original.bench
//	attack -name keyconfirm -locked locked.bench -oracle original.bench key1.txt key2.txt
//
// Trailing arguments are candidate key files (keyinputN=0/1 lines) passed
// to confirmation-style attacks as the φ shortlist.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/attack"
	_ "repro/internal/attack/all"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/oracle"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list registered attacks and exit")
		name       = flag.String("name", "", "attack to run (see -list)")
		lockedPath = flag.String("locked", "", "locked circuit in BENCH format")
		oraclePath = flag.String("oracle", "", "original circuit in BENCH format (oracle; required by oracle-guided attacks)")
		h          = flag.Int("h", 0, "Hamming distance parameter of the locking scheme")
		seed       = flag.Int64("seed", 0, "seed for randomized attack components")
		timeout    = flag.Duration("timeout", 1000*time.Second, "attack time budget (0 = none)")
		maxIter    = flag.Int("maxiter", 0, "iteration cap for iterative attacks (0 = unlimited)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for attacks that parallelize internally (1 = serial)")
		jsonOut    = flag.Bool("json", false, "emit the result as a single JSON document on stdout (recovered netlists print as BENCH on stderr)")
		sf         = attack.RegisterFlags(flag.CommandLine)
	)
	start := time.Now()
	flag.Parse()
	if *list {
		for _, n := range attack.Names() {
			a, _ := attack.Get(n)
			kind := "oracle-less"
			if a.NeedsOracle() {
				kind = "oracle-guided"
			}
			fmt.Printf("%-12s %s\n", n, kind)
		}
		return
	}
	if *name == "" || *lockedPath == "" {
		fatalf("need -name ATTACK and -locked FILE (or -list)")
	}
	atk, err := attack.Get(*name)
	if err != nil {
		fatalf("%v", err)
	}
	if err := sf.Start("attack", "attack", *name, "locked", *lockedPath); err != nil {
		fatalf("%v", err)
	}
	tgt := attack.Target{
		Locked:        parse(*lockedPath),
		H:             *h,
		Seed:          *seed,
		MaxIterations: *maxIter,
		Workers:       *workers,
		Solver:        sf.Setup.Factory(),
	}
	if *oraclePath != "" {
		tgt.Oracle = oracle.NewSim(parse(*oraclePath))
	}
	for _, path := range flag.Args() {
		k, err := attack.ReadKeyFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		tgt.Candidates = append(tgt.Candidates, k)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := atk.Run(obs.With(ctx, sf.Root), tgt)
	if err != nil {
		fatalf("%v", err)
	}
	sf.Finish(os.Stderr, res.Status.String())
	if *jsonOut {
		// The JSON result carries the end-to-end wall clock and the
		// resolved engine labels, the same fields attackd persists in
		// its job artifacts — CLI output and daemon artifacts diff
		// field-for-field.
		j := res.JSON()
		j.WallNS = time.Since(start)
		j.Engines = sf.Setup.EngineLabels()
		j.SolveNS = int64(sf.Setup.SolveTime())
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(j); err != nil {
			fatalf("encode result: %v", err)
		}
	} else {
		fmt.Printf("attack: %s\nstatus: %s\niterations: %d\noracle queries: %d\nelapsed: %v\n",
			res.Attack, res.Status, res.Iterations, res.OracleQueries, res.Elapsed.Round(time.Millisecond))
		for i, key := range res.Keys {
			fmt.Printf("key %d:\n", i+1)
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
	}
	if res.Recovered != nil {
		if *jsonOut {
			// Keep stdout a single parseable JSON document (the result
			// above carries recovered_gates); the netlist goes to stderr
			// for capture via 2>.
			fmt.Fprint(os.Stderr, bench.WriteString(res.Recovered))
		} else {
			fmt.Printf("recovered netlist (%d gates) follows:\n", res.Recovered.NumGates())
			fmt.Print(bench.WriteString(res.Recovered))
		}
	}
	// Exit codes mirror the verdict so scripts and CI can branch on the
	// result without parsing output: 2 = budget expired, 3 = the attack
	// completed but established nothing.
	switch res.Status {
	case attack.StatusTimeout:
		os.Exit(2)
	case attack.StatusInconclusive, attack.StatusRefuted:
		os.Exit(3)
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
	fmt.Fprintf(os.Stderr, "attack: "+format+"\n", args...)
	os.Exit(1)
}
