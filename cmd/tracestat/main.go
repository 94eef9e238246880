// Command tracestat analyzes NDJSON span traces written by the attack
// CLIs (-trace FILE), campaign shards, or fetched from an attackd
// job's trace endpoint: per-phase, per-engine and per-query-family
// cost breakdowns, the top-N slowest solver queries, and memo
// efficiency. Multiple files merge into one view (the fleet case: one
// trace per shard).
//
//	tracestat trace.ndjson
//	tracestat -top 20 shard-*.ndjson
//	tracestat -reconcile result.json trace.ndjson
//
// -reconcile cross-checks the trace against an attack artifact
// (cmd/attack -json output or an attackd job artifact): the summed
// query-span wall must cover at least 95% of the artifact's solve_ns,
// or the exit code is 1 — the CI guard that spans actually account
// for the solver time the artifact reports.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	// A bad flag exits 1 like any other usage error; -help exits 0.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	var (
		topN      = flag.Int("top", 10, "slowest queries to list")
		reconcile = flag.String("reconcile", "", "attack result JSON to reconcile query spans against (solve_ns coverage must be >= threshold)")
		threshold = flag.Float64("threshold", 0.95, "minimum solve_ns coverage for -reconcile")
	)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(1)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-top N] [-reconcile result.json] TRACE.ndjson...")
		os.Exit(1)
	}
	files, err := obs.ReadTraceFiles(flag.Args())
	if err != nil {
		fatalf("%v", err)
	}
	rep := obs.Analyze(files, *topN)
	rep.Render(os.Stdout)

	if *reconcile != "" {
		solveNS, err := readSolveNS(*reconcile)
		if err != nil {
			fatalf("reconcile: %v", err)
		}
		cov := rep.Reconcile(solveNS)
		fmt.Printf("reconcile: spans cover %.1f%% of artifact solve_ns (%d / %d)\n",
			100*cov, rep.QueryNS, solveNS)
		if cov < *threshold {
			fmt.Fprintf(os.Stderr, "tracestat: coverage %.1f%% below threshold %.1f%%\n",
				100*cov, 100**threshold)
			os.Exit(1)
		}
	}
}

// readSolveNS extracts solve_ns from an attack result document: either
// a cmd/attack -json result (top-level solve_ns) or an attackd job
// artifact (result.solve_ns).
func readSolveNS(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		SolveNS int64 `json:"solve_ns"`
		Result  *struct {
			SolveNS int64 `json:"solve_ns"`
		} `json:"result"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if doc.SolveNS > 0 {
		return doc.SolveNS, nil
	}
	if doc.Result != nil {
		return doc.Result.SolveNS, nil
	}
	return 0, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracestat: "+format+"\n", args...)
	os.Exit(1)
}
