package attack

import (
	"fmt"
	"time"
)

// This file defines the stable serialized forms of attack results, used
// by campaign artifacts and the -json output of cmd/attack. Status
// round-trips through its String name so artifacts stay readable and
// independent of the enum's numeric values.

// ParseStatus inverts Status.String.
func ParseStatus(s string) (Status, error) {
	switch s {
	case "inconclusive":
		return StatusInconclusive, nil
	case "unique-key":
		return StatusUniqueKey, nil
	case "shortlist":
		return StatusShortlist, nil
	case "recovered":
		return StatusRecovered, nil
	case "refuted":
		return StatusRefuted, nil
	case "timeout":
		return StatusTimeout, nil
	}
	return StatusInconclusive, fmt.Errorf("attack: unknown status %q", s)
}

// MarshalText serializes the status as its String name.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a status name produced by MarshalText.
func (s *Status) UnmarshalText(b []byte) error {
	v, err := ParseStatus(string(b))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ResultJSON is the stable machine-readable serialization of a Result.
// The recovered netlist, when present, is summarized by its gate count
// (netlists travel as BENCH files, not embedded in result JSON).
type ResultJSON struct {
	Attack         string        `json:"attack"`
	Status         Status        `json:"status"`
	Keys           []Key         `json:"keys,omitempty"`
	Iterations     int           `json:"iterations"`
	OracleQueries  int           `json:"oracle_queries"`
	ElapsedNS      time.Duration `json:"elapsed_ns"`
	RecoveredGates int           `json:"recovered_gates,omitempty"`
	// WallNS is the end-to-end wall clock of the whole run including
	// setup (circuit parsing, solver construction), where ElapsedNS is
	// attack time only. Set by RunJSON, so CLI output and daemon
	// artifacts carry the same fields.
	WallNS time.Duration `json:"wall_ns,omitempty"`
	// Engines holds the label of the engine the run solved on
	// (SolverSetup.EngineLabel): ["internal"] for the default engine.
	Engines []string `json:"engines,omitempty"`
	// SolveNS is the cumulative wall time spent inside solver
	// Solve/SolveAssuming calls (SolverSetup.SolveTime) — the total a
	// trace's query spans reconcile against (`tracestat -reconcile`).
	// Zero (omitted) when the run used the built-in default engine
	// with no setup attached.
	SolveNS int64 `json:"solve_ns,omitempty"`
}

// JSON returns the serializable view of the result.
func (r *Result) JSON() ResultJSON {
	j := ResultJSON{
		Attack:        r.Attack,
		Status:        r.Status,
		Keys:          r.Keys,
		Iterations:    r.Iterations,
		OracleQueries: r.OracleQueries,
		ElapsedNS:     r.Elapsed,
	}
	if r.Recovered != nil {
		j.RecoveredGates = r.Recovered.NumGates()
	}
	return j
}

// RunJSON returns JSON plus the run-level fields that cmd/attack -json
// and attackd artifacts share: the end-to-end wall clock, and the
// engine label and solve time of the setup the run's engines came from.
func (r *Result) RunJSON(setup *SolverSetup, wall time.Duration) ResultJSON {
	j := r.JSON()
	j.WallNS = wall
	j.Engines = []string{setup.EngineLabel()}
	j.SolveNS = int64(setup.SolveTime())
	return j
}
