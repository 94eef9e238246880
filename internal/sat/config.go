package sat

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// RestartStrategy selects the restart schedule of the CDCL search.
type RestartStrategy int

// Available restart strategies. RestartLuby (the default) follows the
// Luby sequence scaled by Config.RestartBase; RestartGeometric grows the
// conflict budget by Config.RestartGrowth after every restart.
const (
	RestartLuby RestartStrategy = iota
	RestartGeometric
)

func (r RestartStrategy) String() string {
	if r == RestartGeometric {
		return "geometric"
	}
	return "luby"
}

// Phase selects the polarity of decision assignments.
type Phase int

// Available decision polarities. PhaseSaved (the default) reuses the
// polarity the variable last held (classic phase saving); PhaseFalse and
// PhaseTrue always decide the fixed polarity; PhaseRandom draws the
// polarity from the config's seeded RNG.
const (
	PhaseSaved Phase = iota
	PhaseFalse
	PhaseTrue
	PhaseRandom
)

func (p Phase) String() string {
	switch p {
	case PhaseFalse:
		return "false"
	case PhaseTrue:
		return "true"
	case PhaseRandom:
		return "random"
	default:
		return "saved"
	}
}

// Config parameterizes a Solver's search heuristics. The zero value is
// the baseline configuration (what New uses): Luby restarts with base
// 100, saved phases, VSIDS decay 0.95, clause decay 0.999, no random
// decisions, no conflict budget.
//
// Every heuristic, including the randomized ones, is driven purely by
// Seed: two solvers built from equal Configs and fed the same clause
// stream make identical decisions, reach identical verdicts and models,
// and report identical conflict counts. That determinism is what lets a
// fixed-seed experiment reproduce bit-for-bit, and what the determinism
// tests in config_test.go pin down.
type Config struct {
	// Seed drives the seeded tie-breaking: random decision variables
	// (RandomFreq) and random polarities (PhaseRandom). Configs that use
	// neither are seed-independent.
	Seed int64
	// Restart selects the restart schedule.
	Restart RestartStrategy
	// RestartBase is the first restart's conflict budget (default 100).
	RestartBase int
	// RestartGrowth is the geometric schedule's multiplier (default
	// 1.5); RestartLuby ignores it.
	RestartGrowth float64
	// Phase selects the decision polarity heuristic.
	Phase Phase
	// VarDecay is the VSIDS activity decay factor in (0,1) (default
	// 0.95); lower values make the heuristic more agile.
	VarDecay float64
	// ClauseDecay is the learnt-clause activity decay factor (default
	// 0.999).
	ClauseDecay float64
	// RandomFreq is the fraction of decisions that pick a uniformly
	// random unassigned variable instead of the top-activity one
	// (default 0, i.e. pure VSIDS).
	RandomFreq float64
	// ConflictBudget bounds conflicts per Solve call (0 = unlimited);
	// a call that exceeds it returns Unknown.
	ConflictBudget int64
}

// DefaultConfig returns the baseline configuration with every default
// made explicit.
func DefaultConfig() Config { return Config{}.withDefaults() }

// withDefaults fills zero fields with the baseline values, so the zero
// Config and DefaultConfig() behave identically.
func (c Config) withDefaults() Config {
	if c.RestartBase == 0 {
		c.RestartBase = 100
	}
	if c.RestartGrowth == 0 {
		c.RestartGrowth = 1.5
	}
	if c.VarDecay == 0 {
		c.VarDecay = 0.95
	}
	if c.ClauseDecay == 0 {
		c.ClauseDecay = 0.999
	}
	return c
}

// String renders the canonical spec of the config: the seed plus every
// field that differs from the baseline, in ParseConfig syntax. It is
// stable, so it doubles as the engine's label in artifacts and traces.
func (c Config) String() string {
	c = c.withDefaults()
	d := DefaultConfig()
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	if c.Restart != d.Restart {
		parts = append(parts, "restart="+c.Restart.String())
	}
	if c.RestartBase != d.RestartBase {
		parts = append(parts, fmt.Sprintf("base=%d", c.RestartBase))
	}
	if c.RestartGrowth != d.RestartGrowth {
		parts = append(parts, fmt.Sprintf("growth=%g", c.RestartGrowth))
	}
	if c.Phase != d.Phase {
		parts = append(parts, "phase="+c.Phase.String())
	}
	if c.VarDecay != d.VarDecay {
		parts = append(parts, fmt.Sprintf("vdecay=%g", c.VarDecay))
	}
	if c.ClauseDecay != d.ClauseDecay {
		parts = append(parts, fmt.Sprintf("cdecay=%g", c.ClauseDecay))
	}
	if c.RandomFreq != d.RandomFreq {
		parts = append(parts, fmt.Sprintf("rand=%g", c.RandomFreq))
	}
	if c.ConflictBudget != d.ConflictBudget {
		parts = append(parts, fmt.Sprintf("budget=%d", c.ConflictBudget))
	}
	return strings.Join(parts, ",")
}

// ParseConfig parses a comma-separated key=value spec as accepted by the
// CLIs' -solver flags and produced by Config.String:
//
//	seed=N restart=luby|geometric base=N growth=F
//	phase=saved|false|true|random vdecay=F cdecay=F rand=F budget=N
//
// Unset keys keep their baseline values; the empty string is the
// baseline config.
func ParseConfig(spec string) (Config, error) {
	c := DefaultConfig()
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("sat: config entry %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		case "restart":
			switch v {
			case "luby":
				c.Restart = RestartLuby
			case "geometric", "geo":
				c.Restart = RestartGeometric
			default:
				err = fmt.Errorf("want luby or geometric, got %q", v)
			}
		case "base":
			c.RestartBase, err = strconv.Atoi(v)
		case "growth":
			c.RestartGrowth, err = strconv.ParseFloat(v, 64)
		case "phase":
			switch v {
			case "saved":
				c.Phase = PhaseSaved
			case "false", "neg":
				c.Phase = PhaseFalse
			case "true", "pos":
				c.Phase = PhaseTrue
			case "random", "rand":
				c.Phase = PhaseRandom
			default:
				err = fmt.Errorf("want saved, false, true or random, got %q", v)
			}
		case "vdecay":
			c.VarDecay, err = strconv.ParseFloat(v, 64)
		case "cdecay":
			c.ClauseDecay, err = strconv.ParseFloat(v, 64)
		case "rand":
			c.RandomFreq, err = strconv.ParseFloat(v, 64)
		case "budget":
			c.ConflictBudget, err = strconv.ParseInt(v, 10, 64)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return c, fmt.Errorf("sat: config entry %q: %v", kv, err)
		}
	}
	if err := c.validate(); err != nil {
		return c, err
	}
	return c, nil
}

// validate checks an already-normalized config (NewWith normalizes
// first; ParseConfig starts from DefaultConfig, so an explicit zero in
// a spec is caught rather than silently re-defaulted). The float checks
// test for the valid range, so NaN fails them.
func (c Config) validate() error {
	switch {
	case !(c.VarDecay > 0 && c.VarDecay <= 1):
		return fmt.Errorf("sat: vdecay %g outside (0,1]", c.VarDecay)
	case !(c.ClauseDecay > 0 && c.ClauseDecay <= 1):
		return fmt.Errorf("sat: cdecay %g outside (0,1]", c.ClauseDecay)
	case !(c.RandomFreq >= 0 && c.RandomFreq <= 1):
		return fmt.Errorf("sat: rand %g outside [0,1]", c.RandomFreq)
	case c.RestartBase < 1:
		return fmt.Errorf("sat: restart base %d < 1", c.RestartBase)
	case !(c.RestartGrowth >= 1):
		return fmt.Errorf("sat: restart growth %g < 1", c.RestartGrowth)
	}
	return nil
}

// rng returns the config's seeded tie-breaking source, or nil when no
// heuristic consumes randomness (keeping the deterministic hot path free
// of RNG calls).
func (c Config) rng() *rand.Rand {
	if c.RandomFreq <= 0 && c.Phase != PhaseRandom {
		return nil
	}
	return rand.New(rand.NewSource(c.Seed ^ 0x5deece66d))
}
