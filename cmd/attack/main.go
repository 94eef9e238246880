// Command attack is the front end to the unified attack registry: any
// registered attack runs against any locked BENCH netlist through the
// same flags, so a new attack registered with the attack package gets a
// CLI for free. Its attack and solver flags mirror the fields of the
// daemon's server.JobSpec.
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
//
// The plain view prints the verdict and each key sorted by name; for
// FALL it adds the comparator and candidate counts, the per-stage times
// and the analysis and node each key came from. -json prints the result
// as one JSON document instead. With -oracle, a unique key is checked
// against the oracle on 1024 random patterns (the check's line goes to
// stderr under -json).
//
// Exit codes: 0 success; 1 usage or input error; 2 the time budget
// expired; 3 the attack established nothing (inconclusive), refuted
// its candidates, or found a key that fails the oracle check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/attack"
	_ "repro/internal/attack/all"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/fall"
	"repro/internal/obs"
	"repro/internal/oracle"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command line args, writing to stdout and stderr, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list registered attacks and exit")
		name       = fs.String("name", "", "attack to run (see -list)")
		lockedPath = fs.String("locked", "", "locked circuit in BENCH format")
		oraclePath = fs.String("oracle", "", "original circuit in BENCH format (oracle; required by oracle-guided attacks)")
		h          = fs.Int("h", 0, "Hamming distance parameter of the locking scheme")
		seed       = fs.Int64("seed", 0, "seed for randomized attack components")
		timeout    = fs.Duration("timeout", 1000*time.Second, "attack time budget (0 = none)")
		maxIter    = fs.Int("maxiter", 0, "iteration cap for iterative attacks (0 = unlimited)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for attacks that parallelize internally (1 = serial)")
		jsonOut    = fs.Bool("json", false, "emit the result as a single JSON document on stdout (recovered netlists print as BENCH on stderr)")
		sf         = attack.RegisterFlags(fs)
	)
	start := time.Now()
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	// fail prints one "attack: " prefix: errors from internal/attack
	// already carry it.
	fail := func(format string, a ...any) int {
		msg := fmt.Sprintf(format, a...)
		if !strings.HasPrefix(msg, "attack: ") {
			msg = "attack: " + msg
		}
		fmt.Fprintln(stderr, msg)
		return 1
	}
	if *list {
		for _, n := range attack.Names() {
			a, _ := attack.Get(n)
			kind := "oracle-less"
			if a.NeedsOracle() {
				kind = "oracle-guided"
			}
			fmt.Fprintf(stdout, "%-12s %s\n", n, kind)
		}
		return 0
	}
	if *name == "" || *lockedPath == "" {
		return fail("need -name ATTACK and -locked FILE (or -list)")
	}
	atk, err := attack.Get(*name)
	if err != nil {
		return fail("%v", err)
	}
	tgt := attack.Target{
		H:             *h,
		Seed:          *seed,
		MaxIterations: *maxIter,
		Workers:       *workers,
	}
	if tgt.Locked, err = parse(*lockedPath); err != nil {
		return fail("%v", err)
	}
	if *oraclePath != "" {
		orig, err := parse(*oraclePath)
		if err != nil {
			return fail("%v", err)
		}
		tgt.Oracle = oracle.NewSim(orig)
	}
	for _, path := range fs.Args() {
		k, err := attack.ReadKeyFile(path)
		if err != nil {
			return fail("%v", err)
		}
		tgt.Candidates = append(tgt.Candidates, k)
	}
	if err := sf.Start("attack", "attack", *name, "locked", *lockedPath); err != nil {
		return fail("%v", err)
	}
	tgt.Solver = sf.Setup.Factory()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := atk.Run(obs.With(ctx, sf.Root), tgt)
	if err != nil {
		sf.Finish(stderr, "error")
		return fail("%v", err)
	}
	sf.Finish(stderr, res.Status.String())
	if *jsonOut {
		// The same fields attackd persists in its job artifacts: CLI
		// output and daemon artifacts diff field-for-field.
		j := res.RunJSON(sf.Setup, time.Since(start))
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(j); err != nil {
			return fail("encode result: %v", err)
		}
	} else {
		printResult(stdout, res)
	}
	if res.Recovered != nil {
		if *jsonOut {
			// Keep stdout a single parseable JSON document (the result
			// above carries recovered_gates); the netlist goes to stderr
			// for capture via 2>.
			fmt.Fprint(stderr, bench.WriteString(res.Recovered))
		} else {
			fmt.Fprintf(stdout, "recovered netlist (%d gates) follows:\n", res.Recovered.NumGates())
			fmt.Fprint(stdout, bench.WriteString(res.Recovered))
		}
	}
	if res.UniqueKey() && tgt.Oracle != nil {
		w := stdout
		if *jsonOut {
			w = stderr
		}
		if err := oracle.CheckKey(tgt.Locked, tgt.Oracle, res.Keys[0], 1024, 7); err != nil {
			fmt.Fprintf(w, "key failed random validation: %v\n", err)
			return 3
		}
		fmt.Fprintln(w, "key validated against the oracle on 1024 random patterns")
	}
	// Exit codes mirror the verdict so scripts and CI can branch on the
	// result without parsing output: 2 = budget expired, 3 = the attack
	// completed but established nothing.
	switch res.Status {
	case attack.StatusTimeout:
		return 2
	case attack.StatusInconclusive, attack.StatusRefuted:
		return 3
	}
	return 0
}

// printResult writes the plain view of res. A FALL result adds its
// structural counts, stage times and the provenance of each key.
func printResult(w io.Writer, res *attack.Result) {
	fmt.Fprintf(w, "attack: %s\nstatus: %s\niterations: %d\noracle queries: %d\nelapsed: %v\n",
		res.Attack, res.Status, res.Iterations, res.OracleQueries, res.Elapsed.Round(time.Millisecond))
	fr, _ := res.Details.(*fall.Result)
	if fr != nil {
		fmt.Fprintf(w, "comparators: %d (pairing %d circuit inputs)\n", len(fr.Comparators), len(fr.CompX))
		fmt.Fprintf(w, "candidate cube-stripper gates: %d\n", len(fr.Candidates))
		fmt.Fprintf(w, "stage times: comparators %v, matching %v, analyses %v (total %v)\n",
			fr.ComparatorTime.Round(time.Millisecond), fr.MatchTime.Round(time.Millisecond),
			fr.AnalysisTime.Round(time.Millisecond), fr.Total.Round(time.Millisecond))
	}
	for i, key := range res.Keys {
		if fr != nil {
			fmt.Fprintf(w, "key %d (via %s, node %d):\n", i+1, fr.Keys[i].Analysis, fr.Keys[i].Node)
		} else {
			fmt.Fprintf(w, "key %d:\n", i+1)
		}
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
			fmt.Fprintf(w, "  %s=%d\n", n, v)
		}
	}
}

func parse(path string) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := bench.Parse(f, path)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return c, nil
}
