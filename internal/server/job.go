package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// JobState is the lifecycle state of a job. The lifecycle is
//
//	queued → running → done | failed | cancelled
//
// with two extra edges: queued → cancelled (DELETE before dispatch) and
// running → queued (a graceful drain cancelled the solve mid-flight; a
// restarted daemon re-dispatches the job from scratch).
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final — the job will never run
// again and its artifact (if any) is complete.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

func parseJobState(s string) (JobState, error) {
	switch JobState(s) {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return JobState(s), nil
	}
	return "", fmt.Errorf("server: unknown job state %q", s)
}

// JobSpec is the client-submitted description of one attack job — the
// POST /jobs request body. Circuits travel as BENCH text; everything
// else mirrors the cmd/attack flag surface, so any case runnable from
// the CLI is submittable over HTTP with the same semantics.
type JobSpec struct {
	// Attack names the registered attack to run (attack.Registry).
	Attack string `json:"attack"`
	// Locked is the locked netlist in BENCH format.
	Locked string `json:"locked"`
	// Oracle is the original netlist in BENCH format; required by
	// oracle-guided attacks, ignored by oracle-less ones.
	Oracle string `json:"oracle,omitempty"`
	// H is the Hamming-distance parameter of the locking scheme.
	H int `json:"h,omitempty"`
	// Seed drives randomized attack components.
	Seed int64 `json:"seed,omitempty"`
	// Timeout bounds the attack's wall clock, in nanoseconds on the
	// wire; 0 means no per-job budget (the daemon may still impose one).
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// MaxIterations caps iterative attacks; 0 means unlimited.
	MaxIterations int `json:"max_iterations,omitempty"`
	// Workers bounds intra-attack parallelism; 0 means the daemon's
	// per-job default. Values above the daemon cap are clamped.
	Workers int `json:"workers,omitempty"`
	// Solver is the -solver engine spec (sat.ParseEngineSpec); empty
	// selects the default engine.
	Solver string `json:"solver,omitempty"`
	// Candidates are key guesses for confirmation-style attacks (the φ
	// shortlist); empty means φ = true.
	Candidates []attack.Key `json:"candidates,omitempty"`
}

// resolved is a JobSpec elaborated into runnable form. The worker
// builds the engines on engine (attack.NewSolverSetup), adding the
// daemon's memo and trace, and sets target.Solver.
type resolved struct {
	atk    attack.Attack
	engine sat.EngineSpec
	target attack.Target
}

// Resolve validates the spec and elaborates it: parse the circuits,
// look up the attack, check the solver spec and its binary, assemble
// the target. All submission-time validation lives here, so a job that
// enqueues is a job the worker can actually start.
func (s *JobSpec) Resolve() (*resolved, error) {
	if s.Attack == "" {
		return nil, fmt.Errorf("server: job has no attack name (registered: %v)", attack.Names())
	}
	atk, err := attack.Get(s.Attack)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(s.Locked) == "" {
		return nil, fmt.Errorf("server: job has no locked circuit")
	}
	locked, err := parseBench(s.Locked, "locked")
	if err != nil {
		return nil, err
	}
	engine, err := sat.ParseEngineSpec(s.Solver)
	if err != nil {
		return nil, err
	}
	if err := (&attack.SolverSetup{Spec: engine}).Check(); err != nil {
		return nil, err
	}
	r := &resolved{
		atk:    atk,
		engine: engine,
		target: attack.Target{
			Locked:        locked,
			H:             s.H,
			Seed:          s.Seed,
			MaxIterations: s.MaxIterations,
			Workers:       s.Workers,
			Candidates:    s.Candidates,
		},
	}
	if strings.TrimSpace(s.Oracle) != "" {
		orig, err := parseBench(s.Oracle, "oracle")
		if err != nil {
			return nil, err
		}
		r.target.Oracle = oracle.NewSim(orig)
	}
	if err := attack.CheckTarget(atk, r.target); err != nil {
		return nil, err
	}
	return r, nil
}

func parseBench(text, what string) (*circuit.Circuit, error) {
	c, err := bench.Parse(strings.NewReader(text), what)
	if err != nil {
		return nil, fmt.Errorf("server: parse %s circuit: %w", what, err)
	}
	return c, nil
}

// Job is the persisted record of one submission: the spec, the
// lifecycle bookkeeping, and — once terminal — the result artifact.
// One JSON document per job, written atomically on every state
// transition, is the whole job store (see Store).
type Job struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	Spec   JobSpec  `json:"spec"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Error records a hard attack failure (State == StateFailed).
	Error string `json:"error,omitempty"`
	// Result is the attack outcome (State == StateDone), in exactly the
	// serialization cmd/attack -json emits — daemon artifacts and CLI
	// output carry the same fields.
	Result *attack.ResultJSON `json:"result,omitempty"`
	// RecoveredBench is the bypassed netlist of a removal attack in
	// BENCH format (Result.RecoveredGates summarizes it).
	RecoveredBench string `json:"recovered_bench,omitempty"`

	// userCancel marks a DELETE-initiated cancellation; drainCancel
	// marks a graceful-drain one (the job goes back to queued instead of
	// a terminal state). In-memory only.
	userCancel  bool
	drainCancel bool
}

// newJobID returns a fresh 16-hex-digit random job ID.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// validJobID reports whether id looks like an ID this daemon issued —
// the gate between URL path elements and job-store file names.
func validJobID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range []byte(id) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// JobView is the compact JSON representation served by GET /jobs and
// GET /jobs/{id}: the full record minus the circuit texts and result
// payload (fetch those via /jobs/{id}/result).
type JobView struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	State    JobState   `json:"state"`
	Attack   string     `json:"attack"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Status is the attack verdict for done jobs.
	Status string `json:"status,omitempty"`
}

// View projects the job into its compact representation.
func (j *Job) View() JobView {
	v := JobView{
		ID:       j.ID,
		Tenant:   j.Tenant,
		State:    j.State,
		Attack:   j.Spec.Attack,
		Created:  j.Created,
		Started:  j.Started,
		Finished: j.Finished,
		Error:    j.Error,
	}
	if j.Result != nil {
		v.Status = j.Result.Status.String()
	}
	return v
}
