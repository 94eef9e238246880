// Package campaign turns an experiment configuration into a
// deterministic, serializable plan of cases, executes arbitrary shards
// of that plan, persists one JSON artifact per completed case, and
// merges artifact directories back into the exp aggregations — so a
// paper-scale suite can run monolithically in one process or split 16
// ways across a CI fleet and render byte-identical reports either way.
//
// The lifecycle is plan → run → merge:
//
//	plan   capture config + enumerate cases with stable IDs and a plan
//	       hash (NewPlan / WritePlan)
//	run    claim, run and persist cases one at a time, writing one
//	       artifact per completed case; re-runs skip cases whose
//	       artifact already exists, so a killed run resumes where it
//	       stopped (Run)
//	merge  read artifacts back, reassemble results in plan order, and
//	       render the Table I / Fig. 5 / Fig. 6 / summary reports
//	       through exp.RenderSuite, cmd/fallbench's renderer (Merge)
//
// Run has one scheduler: workers claim cases one at a time via O_EXCL
// claim files next to the artifact paths (steal.go), heartbeat them
// while working, and steal claims whose lease expired. Any number of
// runs pointed at one artifact directory therefore drain the plan
// together at the speed of the sum of their members, and a dead worker
// costs at most one lease. Index-modulo sharding (shard i of n takes
// the cases with index ≡ i mod n, disjoint and exhaustive for any n)
// is a filter on which cases a run claims, for fleets whose workers
// cannot share a directory. Artifacts are written atomically (temp
// file + rename, so a killed run leaves only complete artifacts), and
// every artifact embeds the plan hash so stale or foreign results are
// rejected instead of silently merged. RunOptions.Budget bounds a
// worker's wall clock (stop claiming, finish in flight, report
// BudgetStopped for a later resume), and MergeResult.Rescore replays
// verdict scoring from the key shortlists artifacts persist — scoring
// rules can change after the fact without re-running any attack.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cnf"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/sat"
)

// PlanVersion is bumped whenever the plan schema or case enumeration
// changes incompatibly; ReadPlan rejects other versions.
const PlanVersion = 1

// PlanFileName is the canonical plan file name inside a campaign
// directory.
const PlanFileName = "plan.json"

// DefaultArtifactDir is the artifact directory name inside a campaign
// directory.
const DefaultArtifactDir = "artifacts"

// DefaultSuites lists every report suite in the order cmd/fallbench
// prints them.
func DefaultSuites() []string {
	return []string{"table1", "fig5:hd0", "fig5:h8", "fig5:h4", "fig5:h3", "fig6", "summary"}
}

// Config is the serializable experiment configuration captured by a
// plan. It mirrors exp.Config minus the runtime-only Workers knob
// (worker counts never affect verdicts, so they are not part of a
// plan's identity).
type Config struct {
	Specs []genbench.Spec `json:"specs"`
	Seed  int64           `json:"seed"`
	// Timeout bounds each attack run, in nanoseconds on the wire.
	Timeout time.Duration `json:"timeout_ns"`
	// Enc names the cardinality encoding: "adder" or "seq".
	Enc        string `json:"enc,omitempty"`
	SATIterCap int    `json:"sat_iter_cap"`
	// Solver is the SAT engine spec (sat.ParseEngineSpec grammar, which
	// subsumes the original sat.ParseConfig syntax); empty selects the
	// baseline internal engine. Solver choice never changes verdicts,
	// but the spec is part of the plan (and so of its hash) because it
	// changes the recorded solver_config and portfolio_stats artifact
	// fields. omitempty keeps hashes of pre-portfolio plans unchanged.
	Solver string `json:"solver,omitempty"`
	// Portfolio races this many internal-engine variants of the Solver
	// config per solver query (< 2 = single engine, negative rejected);
	// requires an internal (or empty) Solver spec. An integer -portfolio
	// lands here rather than in PortfolioEngines so its plan hash stays
	// the one earlier plans recorded.
	Portfolio int `json:"portfolio,omitempty"`
	// PortfolioEngines, when set, races an explicit heterogeneous
	// engine list instead (sat.ParseEngineList grammar, e.g.
	// "internal,kissat"); a bare "internal" entry inherits the Solver
	// base config. omitempty keeps pre-heterogeneous plan hashes
	// unchanged.
	PortfolioEngines string `json:"portfolio_engines,omitempty"`
	// AdaptAfter retires a racing engine (of a width or an engine list)
	// mid-run once it has raced this many times without a win (0 =
	// never); it needs at least two engines. Dropping only
	// redistributes racing effort, never verdicts, but it is part of
	// the plan because it changes the recorded portfolio_stats.
	AdaptAfter int64 `json:"adapt_after,omitempty"`
	// MemoDir, when non-empty, is the plan's default persistent
	// verdict-store directory: every shard run attaches the on-disk memo
	// tier there unless overridden at run time. The memo only changes
	// timing, never verdicts, but recording the directory in the plan
	// lets a fleet of shards share a cache without per-shard flag
	// plumbing. omitempty keeps pre-disk-memo plan hashes unchanged.
	MemoDir string `json:"memo_dir,omitempty"`
	// Suites selects the reports to produce, in output order; empty
	// means DefaultSuites.
	Suites []string `json:"suites"`
}

// ExpConfig resolves the serialized config into a runnable exp.Config.
func (c Config) ExpConfig() (exp.Config, error) {
	enc, err := cnf.ParseCardEncoding(c.Enc)
	if err != nil {
		return exp.Config{}, err
	}
	cfg := exp.Config{
		Specs:      c.Specs,
		Seed:       c.Seed,
		Timeout:    c.Timeout,
		Enc:        enc,
		SATIterCap: c.SATIterCap,
		AdaptAfter: c.AdaptAfter,
	}
	portfolio := c.PortfolioEngines
	if c.Portfolio != 0 {
		if portfolio != "" {
			return exp.Config{}, fmt.Errorf("campaign: portfolio and portfolio_engines are mutually exclusive")
		}
		portfolio = strconv.Itoa(c.Portfolio)
	}
	if cfg.Engines, err = sat.ResolveSolverFlags(c.Solver, portfolio); err != nil {
		return exp.Config{}, err
	}
	if c.AdaptAfter > 0 && len(cfg.Engines) < 2 {
		return exp.Config{}, fmt.Errorf("campaign: adapt_after needs a portfolio of at least two engines")
	}
	return cfg, nil
}

// Case is one planned unit of work with a stable ID. SpecIdx indexes
// Config.Specs (it fixes the derived seed); Seed is the case's build
// seed, recorded for inspection.
type Case struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	SpecIdx int    `json:"spec_idx"`
	Circuit string `json:"circuit"`
	Level   string `json:"level,omitempty"`
	Attack  string `json:"attack,omitempty"`
	Seed    int64  `json:"seed"`
}

// Unit resolves the planned case back into an executable exp.Unit.
func (c Case) Unit() (exp.Unit, error) {
	kind, err := exp.ParseUnitKind(c.Kind)
	if err != nil {
		return exp.Unit{}, fmt.Errorf("campaign: case %s: %w", c.ID, err)
	}
	u := exp.Unit{Kind: kind, Circuit: c.Circuit, Attack: c.Attack}
	if kind != exp.UnitTable1 {
		if u.Level, err = exp.ParseHLevel(c.Level); err != nil {
			return exp.Unit{}, fmt.Errorf("campaign: case %s: %w", c.ID, err)
		}
	}
	return u, nil
}

// Suite returns the report suite the case belongs to ("table1",
// "fig5:<level>", "fig6", "summary").
func (c Case) Suite() string {
	if c.Kind == "fig5" {
		return "fig5:" + c.Level
	}
	return c.Kind
}

// Plan is the deterministic manifest of a campaign: the captured
// config, every case in execution/report order, and a hash binding the
// two. Plans with equal hashes enumerate identical work.
type Plan struct {
	Version int    `json:"version"`
	Hash    string `json:"hash"`
	Config  Config `json:"config"`
	Cases   []Case `json:"cases"`
}

// NewPlan enumerates the cases of cfg into a plan. Enumeration touches
// no circuits — planning a paper-scale campaign is instant.
func NewPlan(cfg Config) (*Plan, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("campaign: config has no specs")
	}
	if len(cfg.Suites) == 0 {
		cfg.Suites = DefaultSuites()
	}
	seen := map[string]bool{}
	for _, s := range cfg.Suites {
		if seen[s] {
			return nil, fmt.Errorf("campaign: suite %q listed twice", s)
		}
		seen[s] = true
	}
	expCfg, err := cfg.ExpConfig()
	if err != nil {
		return nil, err
	}
	specIdx := make(map[string]int, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		if _, dup := specIdx[spec.Name]; dup {
			return nil, fmt.Errorf("campaign: spec %q listed twice", spec.Name)
		}
		specIdx[spec.Name] = i
	}
	p := &Plan{Version: PlanVersion, Config: cfg}
	for _, suite := range cfg.Suites {
		units, err := exp.SuiteUnits(expCfg, suite)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			idx := specIdx[u.Circuit]
			pc := Case{
				ID:      u.ID(),
				Kind:    u.Kind.String(),
				SpecIdx: idx,
				Circuit: u.Circuit,
				Attack:  u.Attack,
				Seed:    cfg.Seed + int64(idx)*1009,
			}
			if u.Kind != exp.UnitTable1 {
				pc.Level = u.Level.Token()
			}
			p.Cases = append(p.Cases, pc)
		}
	}
	p.Hash = p.computeHash()
	return p, nil
}

// computeHash hashes the canonical JSON serialization of the plan with
// its Hash field cleared. encoding/json emits struct fields in
// declaration order, so the serialization — and hence the hash — is
// stable across machines.
func (p *Plan) computeHash() string {
	clone := *p
	clone.Hash = ""
	data, err := json.Marshal(&clone)
	if err != nil {
		panic(fmt.Sprintf("campaign: plan not serializable: %v", err)) // plain data, cannot happen
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Validate checks the plan's version and that its hash matches its
// contents.
func (p *Plan) Validate() error {
	if p.Version != PlanVersion {
		return fmt.Errorf("campaign: plan version %d, this binary speaks %d", p.Version, PlanVersion)
	}
	if got := p.computeHash(); got != p.Hash {
		return fmt.Errorf("campaign: plan hash mismatch: recorded %.12s…, computed %.12s… (plan edited by hand?)", p.Hash, got)
	}
	ids := make(map[string]bool, len(p.Cases))
	for _, c := range p.Cases {
		if ids[c.ID] {
			return fmt.Errorf("campaign: duplicate case ID %s", c.ID)
		}
		ids[c.ID] = true
	}
	return nil
}

// ShardIndices returns the plan-case indices belonging to shard `index`
// of `count`: exactly those i with i mod count == index. For any count
// >= 1 the shards partition the cases — pairwise disjoint and jointly
// exhaustive — which TestShardPartition verifies property-style.
func (p *Plan) ShardIndices(index, count int) ([]int, error) {
	if count < 1 {
		return nil, fmt.Errorf("campaign: shard count %d < 1", count)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("campaign: shard index %d outside [0,%d)", index, count)
	}
	var idxs []int
	for i := index; i < len(p.Cases); i += count {
		idxs = append(idxs, i)
	}
	return idxs, nil
}

// WritePlan serializes the plan to path (parent directories are
// created).
func WritePlan(path string, p *Plan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadPlan loads and validates a plan.
func ReadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("campaign: parse %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return &p, nil
}
