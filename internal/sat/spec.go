package sat

import (
	"fmt"
	"strings"
	"unicode"
)

// This file defines the solver-spec grammar shared by every -solver
// flag, campaign plan and daemon job spec: a small language naming
// which engine backend answers SAT queries (the internal CDCL solver or
// an external DIMACS-pipe solver) and how it is tuned. The
// grammar is pure data — parsing never touches the filesystem or PATH
// — so campaign plans can be created on one machine and executed on
// another; engine construction lives in internal/attack, which can
// import the backend packages without a cycle.

// EngineKind selects a solver backend.
type EngineKind int

// Available backends. EngineInternal is the in-process CDCL solver
// (*Solver); EngineProcess pipes DIMACS to an external solver binary
// (kissat, cadical, ...), one process per query.
const (
	EngineInternal EngineKind = iota
	EngineProcess
)

func (k EngineKind) String() string {
	if k == EngineProcess {
		return "process"
	}
	return "internal"
}

// EngineSpec is the parsed form of one engine spec. Exactly the fields
// relevant to Kind are meaningful:
//
//	internal[:<config>]   Config (sat.ParseConfig syntax)
//	<name> | process:cmd=P  Cmd — the solver binary name (resolved on
//	                        PATH at run time) or an explicit path
type EngineSpec struct {
	Kind   EngineKind
	Config Config
	Cmd    string
}

// InternalSpec wraps a solver configuration as an internal-engine spec.
func InternalSpec(cfg Config) EngineSpec {
	return EngineSpec{Kind: EngineInternal, Config: cfg.withDefaults()}
}

// String renders the canonical spec, which doubles as the engine's
// label in artifacts and traces. Internal engines render as their bare
// Config.String().
func (s EngineSpec) String() string {
	switch {
	case s.Kind != EngineProcess:
		return s.Config.String()
	case isBareSolverName(s.Cmd):
		return s.Cmd
	default:
		return "process:cmd=" + s.Cmd
	}
}

// isBareSolverName reports whether cmd round-trips through the grammar
// as a bare word (no path separators, no grammar metacharacters, no
// white space, which spec parsing trims).
func isBareSolverName(cmd string) bool {
	if cmd == "" || strings.ContainsAny(cmd, "/\\:,=") || strings.ContainsFunc(cmd, unicode.IsSpace) {
		return false
	}
	switch cmd {
	case "internal", "bdd", "process", "dimacs":
		return false // reserved words of the grammar
	}
	return true
}

// ParseEngineSpec parses one engine spec. It is the one resolution of
// -solver for every CLI, campaign plan and daemon job:
//
//	""                        the default internal engine
//	"seed=3,restart=geometric"  internal engine, sat.ParseConfig syntax
//	                          (the pre-heterogeneous -solver form)
//	"internal:seed=7"         internal engine, explicit kind
//	"kissat"                  external DIMACS solver, found on PATH
//	"process:cmd=/opt/ks"     external DIMACS solver at a given path
//
// Process-engine binaries are looked up when the engine is built, not
// here: a plan mentioning kissat parses on a machine without it. The
// removed BDD engine's "bdd" stays a reserved word, so a flag, plan or
// job spec naming it is rejected rather than run as a solver binary.
func ParseEngineSpec(spec string) (EngineSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return InternalSpec(Config{}), nil
	}
	head, rest, hasOpts := strings.Cut(spec, ":")
	if strings.Contains(head, "=") {
		// No kind prefix: the whole spec is an internal config list
		// (backward-compatible -solver form).
		cfg, err := ParseConfig(spec)
		if err != nil {
			return EngineSpec{}, err
		}
		return InternalSpec(cfg), nil
	}
	switch head {
	case "internal":
		opts := ""
		if hasOpts {
			opts = rest
		}
		cfg, err := ParseConfig(opts)
		if err != nil {
			return EngineSpec{}, err
		}
		return InternalSpec(cfg), nil
	case "bdd":
		return EngineSpec{}, fmt.Errorf("sat: engine spec %q: the bdd engine has been removed; use internal or an external DIMACS solver", spec)
	case "process", "dimacs":
		return parseProcessSpec(spec, "", rest)
	default:
		// A bare word names an external solver binary to find on PATH.
		if !isBareSolverName(head) {
			return EngineSpec{}, fmt.Errorf("sat: malformed engine spec %q", spec)
		}
		return parseProcessSpec(spec, head, rest)
	}
}

// parseProcessSpec parses the options of an external-solver spec —
// cmd (or path) — for both spellings, "process:<opts>" and
// "<name>:<opts>", starting from the command cmd. A spec that
// leaves the command empty is rejected: its canonical form,
// "process:cmd=", does not parse.
func parseProcessSpec(spec, cmd, opts string) (EngineSpec, error) {
	s := EngineSpec{Kind: EngineProcess, Cmd: cmd}
	for _, kv := range splitOpts(opts) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return EngineSpec{}, fmt.Errorf("sat: process option %q is not key=value", kv)
		}
		switch k {
		case "cmd", "path":
			s.Cmd = v
		default:
			return EngineSpec{}, fmt.Errorf("sat: process option %q: unknown key", kv)
		}
	}
	if s.Cmd == "" {
		return EngineSpec{}, fmt.Errorf("sat: process engine spec %q needs cmd=PATH", spec)
	}
	return s, nil
}

func splitOpts(s string) []string {
	var out []string
	for _, kv := range strings.Split(s, ",") {
		if kv = strings.TrimSpace(kv); kv != "" {
			out = append(out, kv)
		}
	}
	return out
}
