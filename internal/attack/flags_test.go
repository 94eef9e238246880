package attack

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sat"
)

// startFlags registers the shared flags on a fresh flag set, parses
// args and resolves them.
func startFlags(t *testing.T, args ...string) (*SolverFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, f.Start("test")
}

func TestRegisterFlags(t *testing.T) {
	f, err := startFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if f.Spec != sat.InternalSpec(sat.Config{}) || f.Setup != nil || f.Memo != nil || f.Root != nil || f.tracer != nil {
		t.Errorf("no flags must resolve to the default engine alone: %+v", f)
	}
	f.Finish(io.Discard, "unique-key") // nil-safe without a setup or trace

	f, err = startFlags(t, "-solver", "seed=7,restart=geometric", "-memo")
	if err != nil {
		t.Fatal(err)
	}
	geo := sat.InternalSpec(sat.Config{Seed: 7, Restart: sat.RestartGeometric})
	if f.Spec != geo || f.Memo == nil || f.Setup == nil || f.Setup.Memo != f.Memo || f.Setup.Spec != geo {
		t.Errorf("-solver seed=7,restart=geometric -memo: spec %+v, memo %v, setup %+v", f.Spec, f.Memo, f.Setup)
	}

	for _, bad := range [][]string{
		{"-solver", "frobnicate=1"},
		{"-solver", "definitely-not-a-sat-solver-7f3a"},
	} {
		if _, err := startFlags(t, bad...); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}

	// The memo trio parses alike inside the shared set and alone, as
	// campaign run/retry and attackd declare it.
	for name, register := range map[string]func(*flag.FlagSet) *MemoFlags{
		"RegisterFlags":     func(fs *flag.FlagSet) *MemoFlags { return RegisterFlags(fs).memoFlags },
		"RegisterMemoFlags": RegisterMemoFlags,
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		m := register(fs)
		dir := t.TempDir()
		if err := fs.Parse([]string{"-memo-dir", dir, "-memo-max-bytes", "4096"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if *m != (MemoFlags{Dir: dir, MaxBytes: 4096}) {
			t.Errorf("%s: parsed %+v", name, *m)
		}
		if memo, err := NewMemoFromFlags(m.Enabled, m.Dir, m.MaxBytes); err != nil || memo == nil || memo.Disk() == nil {
			t.Errorf("%s: -memo-dir built memo %v (err %v), want a disk tier", name, memo, err)
		}
	}
}

// TestRegisterFlagsTrace: -trace alone builds a default-engine setup
// under a root span, and Finish leaves a closed trace whose root span
// records the status and parents the query spans.
func TestRegisterFlagsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	f, err := startFlags(t, "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Setup == nil || f.Root == nil || f.Setup.Label() != "" {
		t.Fatalf("-trace: setup %+v root %v", f.Setup, f.Root)
	}
	e := f.Setup.Factory()(obs.With(context.Background(), f.Root))
	loadPigeonhole(e, 5, 4)
	if got := e.Solve(); got != sat.Unsat {
		t.Fatalf("verdict %v, want UNSAT", got)
	}
	var stderr strings.Builder
	f.Finish(&stderr, "refuted")
	if stderr.Len() != 0 {
		t.Errorf("a trace-only run printed diagnostics: %q", stderr.String())
	}
	tf, err := obs.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var root, queries int
	for _, sp := range tf.Spans {
		switch sp.Name {
		case "test":
			root++
			if sp.Attrs["status"] != "refuted" {
				t.Errorf("root span attrs %v", sp.Attrs)
			}
		case "query":
			queries++
			if sp.Parent != f.Root.ID() || sp.Attrs["engine"] != "internal" {
				t.Errorf("query span %+v", sp)
			}
		}
	}
	if root != 1 || queries != 1 {
		t.Errorf("trace has %d root and %d query spans, want 1 each", root, queries)
	}
}

// TestMemoSummaryDiskErrors: when the on-disk store cannot take a
// record (a regular file holds every fanout directory's name), the
// query still answers from the solver and the memo disk line Finish
// prints names the write errors; a healthy store's line names none.
func TestMemoSummaryDiskErrors(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		dir := t.TempDir()
		if blocked {
			for i := 0; i < 256; i++ {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", i)), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		f, err := startFlags(t, "-memo-dir", dir)
		if err != nil {
			t.Fatal(err)
		}
		e := f.Setup.Factory()(context.Background())
		v := e.NewVar()
		e.AddClause(sat.PosLit(v))
		if st := e.Solve(); st != sat.Sat {
			t.Fatalf("blocked=%v: verdict %v, want SAT", blocked, st)
		}
		var out strings.Builder
		f.Finish(&out, "unique-key")
		errs := f.Memo.Disk().Stats().Errors
		named := strings.Contains(out.String(), fmt.Sprintf(", %d errors)", errs))
		if blocked != (errs > 0) || blocked != named {
			t.Errorf("blocked=%v: %d disk errors, summary:\n%s", blocked, errs, out.String())
		}
	}
}
