package attack

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sat"
)

// SolverFlags is the solver, memo and trace flag set shared by the
// attack CLIs, declared once by RegisterFlags. Start resolves the
// parsed flags into the exported fields; Finish ends the run.
type SolverFlags struct {
	// Spec is the engine -solver names (sat.ParseEngineSpec); the empty
	// flag gives the default engine.
	Spec sat.EngineSpec
	// Memo is the verdict cache -memo/-memo-dir ask for, or nil.
	Memo *sat.Memo
	// Setup builds the run's engines on Spec, carrying Memo and the
	// trace; nil when no flag asks for one (the default engine).
	Setup *SolverSetup
	// Root is the trace's root span; nil without -trace.
	Root *obs.Span

	solver, trace string
	memoFlags     *MemoFlags
	name          string
	tracer        *obs.Tracer
}

// RegisterFlags declares -solver, -memo, -memo-dir, -memo-max-bytes and
// -trace on fs.
func RegisterFlags(fs *flag.FlagSet) *SolverFlags {
	f := &SolverFlags{}
	fs.StringVar(&f.solver, "solver", "", "solver engine spec, e.g. seed=3,restart=geometric | kissat | process:cmd=/path/to/solver (empty = baseline CDCL; see sat.ParseEngineSpec)")
	f.memoFlags = RegisterMemoFlags(fs)
	fs.StringVar(&f.trace, "trace", "", "write an NDJSON span trace of the run to FILE (verdicts and stdout unchanged; analyze with tracestat)")
	return f
}

// Start resolves the parsed flags: the engine spec (failing fast when
// a process engine's binary is missing), the memo, and — with -trace —
// a tracer whose root span is name with the attribute pairs attrs.
// name also prefixes Finish's diagnostics.
func (f *SolverFlags) Start(name string, attrs ...any) error {
	f.name = name
	var err error
	if f.Spec, err = sat.ParseEngineSpec(f.solver); err != nil {
		return err
	}
	if err := (&SolverSetup{Spec: f.Spec}).Check(); err != nil {
		return err
	}
	if f.Memo, err = NewMemoFromFlags(f.memoFlags.Enabled, f.memoFlags.Dir, f.memoFlags.MaxBytes); err != nil {
		return err
	}
	if f.trace != "" {
		if f.tracer, err = obs.NewFileTracer(f.trace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		f.Root = f.tracer.Start(name, attrs...)
	}
	f.Setup = NewSolverSetup(f.Spec, f.Memo, f.tracer != nil)
	return nil
}

// Finish ends a run whose engines Setup built: the memo summary goes
// to w, the root span records status, and the trace is closed. Call it
// before any verdict-driven os.Exit, which skips deferred calls.
func (f *SolverFlags) Finish(w io.Writer, status string) {
	if st := f.Setup.MemoStats(); st != nil {
		FprintMemoSummary(w, f.Memo, *st, -1)
	}
	f.Root.Set("status", status)
	f.EndTrace(w)
}

// EndTrace ends the root span and closes the trace file (no-op without
// -trace), reporting a close failure on w.
func (f *SolverFlags) EndTrace(w io.Writer) {
	f.Root.End()
	if err := f.tracer.Close(); err != nil {
		fmt.Fprintf(w, "%s: trace: %v\n", f.name, err)
	}
}
