package sat

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// This file defines the solver-spec grammar shared by every -solver and
// -portfolio flag and by campaign plan serialization: a small language
// naming which engine backend answers SAT queries (the internal CDCL
// solver or an external DIMACS-pipe solver) and how it is tuned. The
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

// String renders the canonical spec, which doubles as the engine's key
// in portfolio win statistics. Internal engines render as their bare
// Config.String() — exactly the pre-heterogeneous ledger labels, so
// win statistics of runs of either vintage merge by label.
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

// EngineLabels returns the canonical label of every spec, in order —
// the ledger slot names of a portfolio over the list.
func EngineLabels(specs []EngineSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.String()
	}
	return out
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

// ParseEngineSpec parses one engine spec:
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

// maxPortfolio bounds the engines one portfolio races, in both the
// integer and the list form of -portfolio. A width arrives from flags,
// campaign plans and daemon requests, and sizes the engine list and
// every race, so it must not ask for an unbounded allocation.
const maxPortfolio = 64

// ParseEngineList parses a heterogeneous -portfolio list into engine
// specs. Entries are comma-separated; a comma-separated token containing
// '=' continues the previous entry's option list (engine options
// themselves use commas), so
//
//	internal:seed=7,restart=geometric,kissat,process:cmd=/opt/cadical
//
// is three engines. A bare "internal" entry inherits base (the -solver
// config); "internal:<opts>" stands alone. Duplicate canonical specs are
// rejected — racing two identical engines wastes a core and collides
// their win-statistics labels — and so is a list of more than
// maxPortfolio engines.
func ParseEngineList(list string, base Config) ([]EngineSpec, error) {
	var entries []string
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		// A bare key=value token (no kind prefix before the '=') continues
		// the previous entry's options; anything else — a bare engine name
		// or a kind:... prefix — starts a new entry. An entry that so far
		// has no options at all ("internal", "kissat") gains its
		// first one with the ':' separator the single-spec grammar wants.
		eq := strings.Index(tok, "=")
		colon := strings.Index(tok, ":")
		continuation := eq >= 0 && !(colon >= 0 && colon < eq)
		if continuation && len(entries) > 0 {
			sep := ","
			if !strings.ContainsAny(entries[len(entries)-1], ":=") {
				sep = ":"
			}
			entries[len(entries)-1] += sep + tok
			continue
		}
		entries = append(entries, tok)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("sat: empty portfolio list %q", list)
	}
	if len(entries) > maxPortfolio {
		return nil, fmt.Errorf("sat: portfolio lists %d engines, more than %d", len(entries), maxPortfolio)
	}
	specs := make([]EngineSpec, 0, len(entries))
	seen := map[string]bool{}
	for _, e := range entries {
		var s EngineSpec
		var err error
		if e == "internal" {
			s = InternalSpec(base)
		} else if s, err = ParseEngineSpec(e); err != nil {
			return nil, err
		}
		key := s.String()
		if seen[key] {
			return nil, fmt.Errorf("sat: portfolio lists engine %q twice", key)
		}
		seen[key] = true
		specs = append(specs, s)
	}
	return specs, nil
}

// ResolveSolverFlags is the one resolution of the -solver/-portfolio
// flag pair, shared by the attack CLIs (attack.RegisterFlags), the
// daemon, and campaign plans, so a flag pair means the same thing
// everywhere. solver is one engine spec. portfolio is either an integer
// width 2 <= N <= maxPortfolio — N internal variants of the -solver
// config (PortfolioConfigs) — or an engine list (ParseEngineList). Both
// flags unset, or a width below 2 with an empty solver, resolve to nil:
// the attacks' built-in default engine.
func ResolveSolverFlags(solver, portfolio string) ([]EngineSpec, error) {
	spec, err := ParseEngineSpec(solver)
	if err != nil {
		return nil, err
	}
	width := 0
	if portfolio = strings.TrimSpace(portfolio); portfolio != "" {
		n, aerr := strconv.Atoi(portfolio)
		if aerr != nil {
			// Engine-list form. A non-internal -solver cannot act as the
			// base the list's bare "internal" entries inherit.
			if spec.Kind != EngineInternal {
				return nil, fmt.Errorf("sat: -portfolio %q lists engines; -solver must then be an internal config, not %q", portfolio, solver)
			}
			return ParseEngineList(portfolio, spec.Config)
		}
		if n < 0 {
			return nil, fmt.Errorf("sat: -portfolio %d: width must not be negative", n)
		}
		if n > maxPortfolio {
			return nil, fmt.Errorf("sat: -portfolio %d: width must not exceed %d", n, maxPortfolio)
		}
		width = n
	}
	switch {
	case width >= 2 && spec.Kind != EngineInternal:
		return nil, fmt.Errorf("sat: -portfolio %d derives internal engine variants; race %q via the list form, e.g. -portfolio internal,%s", width, solver, solver)
	case width >= 2:
		specs := make([]EngineSpec, width)
		for i, cfg := range PortfolioConfigs(spec.Config, width) {
			specs[i] = InternalSpec(cfg)
		}
		return specs, nil
	case solver == "":
		return nil, nil
	}
	return []EngineSpec{spec}, nil
}

// MergeStats sums per-config statistics by config label across any
// number of snapshot groups, preserving first-appearance order — the
// aggregation behind fallbench's and campaign merge's per-engine win
// report.
func MergeStats(groups ...[]ConfigStats) []ConfigStats {
	idx := map[string]int{}
	var out []ConfigStats
	for _, group := range groups {
		for _, cs := range group {
			i, ok := idx[cs.Config]
			if !ok {
				i = len(out)
				idx[cs.Config] = i
				out = append(out, ConfigStats{Config: cs.Config})
			}
			out[i].Races += cs.Races
			out[i].Wins += cs.Wins
			out[i].SatWins += cs.SatWins
			out[i].UnsatWins += cs.UnsatWins
			out[i].Conflicts += cs.Conflicts
		}
	}
	return out
}
