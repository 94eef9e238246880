package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/exp"
)

// Artifact is the persisted result of one completed case: exactly one
// payload field is set according to the case kind, or Error for a
// harness-level failure. Every artifact records the plan hash it was
// computed under, so merges reject results from a different plan
// instead of silently mixing campaigns.
type Artifact struct {
	PlanHash string              `json:"plan_hash"`
	CaseID   string              `json:"case_id"`
	Outcome  *exp.Outcome        `json:"outcome,omitempty"`
	Fig6     *exp.Fig6CaseResult `json:"fig6,omitempty"`
	Table1   *exp.Table1Row      `json:"table1,omitempty"`
	Error    string              `json:"error,omitempty"`

	// path records where ReadArtifact loaded the artifact from, so a
	// merge re-score can rewrite a changed artifact in place.
	path string
}

// Failed reports whether the case ran but produced no usable
// measurement (exp.UnitResult.Failed).
func (a *Artifact) Failed() bool { return a.result().Failed() }

// newArtifact captures a unit result for the given planned case.
func newArtifact(planHash string, pc Case, r exp.UnitResult) *Artifact {
	a := &Artifact{PlanHash: planHash, CaseID: pc.ID}
	if r.Err != nil {
		a.Error = r.Err.Error()
		return a
	}
	a.Outcome, a.Fig6, a.Table1 = r.Outcome, r.Fig6, r.Table1
	return a
}

// result converts the artifact back into the unit result it captured.
func (a *Artifact) result() exp.UnitResult {
	r := exp.UnitResult{Outcome: a.Outcome, Fig6: a.Fig6, Table1: a.Table1}
	if a.Error != "" {
		r.Err = errors.New(a.Error)
	}
	return r
}

// ArtifactFileName maps a case ID to its artifact file name (case IDs
// contain slashes; artifact directories stay flat so shard outputs can
// be tarred, uploaded and merged with plain file tools).
func ArtifactFileName(caseID string) string {
	return strings.ReplaceAll(caseID, "/", "__") + ".json"
}

// ArtifactPath returns the artifact path for a case ID under dir.
func ArtifactPath(dir, caseID string) string {
	return filepath.Join(dir, ArtifactFileName(caseID))
}

// WriteArtifact persists the artifact atomically (atomicfile.WriteFile), so
// a shard killed mid-write leaves no partial artifact — only complete
// artifacts are ever visible to resumes and merges.
func WriteArtifact(dir string, a *Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(dir, ArtifactFileName(a.CaseID), append(data, '\n'))
}

// ReadArtifact loads one artifact file.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("campaign: parse artifact %s: %w", path, err)
	}
	if a.CaseID == "" {
		return nil, fmt.Errorf("campaign: artifact %s has no case ID", path)
	}
	a.path = path
	return &a, nil
}

// ReadArtifacts scans every *.json artifact in dirs and returns them
// keyed by case ID. Artifacts from a different plan (hash mismatch) or
// for unknown case IDs are errors; a directory that does not exist is
// treated as empty (a shard that has not started yet). When the same
// case appears in several directories the first occurrence wins —
// duplicates are re-executions of the same deterministic work.
func ReadArtifacts(plan *Plan, dirs []string) (map[string]*Artifact, error) {
	known := make(map[string]bool, len(plan.Cases))
	for _, c := range plan.Cases {
		known[c.ID] = true
	}
	arts := make(map[string]*Artifact)
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, ent := range entries {
			name := ent.Name()
			if ent.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
				continue
			}
			path := filepath.Join(dir, name)
			a, err := ReadArtifact(path)
			if err != nil {
				return nil, err
			}
			if a.PlanHash != plan.Hash {
				return nil, fmt.Errorf("campaign: artifact %s was produced under plan %.12s…, this plan is %.12s… (stale artifact directory?)", path, a.PlanHash, plan.Hash)
			}
			if !known[a.CaseID] {
				return nil, fmt.Errorf("campaign: artifact %s names case %s, which is not in the plan", path, a.CaseID)
			}
			if _, dup := arts[a.CaseID]; !dup {
				arts[a.CaseID] = a
			}
		}
	}
	return arts, nil
}
