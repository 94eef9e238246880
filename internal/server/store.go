package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atomicfile"
)

// Store persists jobs as one JSON file per job under a directory,
// written atomically (atomicfile.WriteFile: temp file plus rename) — a
// daemon killed mid-write leaves no partial job file, so whatever a
// restart reads back is a complete record. The store is the daemon's
// only durable state: queued and running jobs found on startup are
// re-enqueued (Server recovery), terminal jobs serve their artifacts.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) the job directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(id string) string {
	return filepath.Join(st.dir, id+".json")
}

// Put persists the job atomically, replacing any previous version.
func (st *Store) Put(j *Job) error {
	if !validJobID(j.ID) {
		return fmt.Errorf("server: refusing to persist malformed job ID %q", j.ID)
	}
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(st.dir, j.ID+".json", append(data, '\n'))
}

// Get loads one job by ID. A missing job returns fs.ErrNotExist.
func (st *Store) Get(id string) (*Job, error) {
	if !validJobID(id) {
		return nil, fs.ErrNotExist
	}
	return readJob(st.path(id))
}

// Raw returns the persisted artifact bytes of a job — what
// GET /jobs/{id}/result serves, byte-for-byte the on-disk record.
func (st *Store) Raw(id string) ([]byte, error) {
	if !validJobID(id) {
		return nil, fs.ErrNotExist
	}
	return os.ReadFile(st.path(id))
}

// Delete removes a job file (unwinding a submission the queue
// rejected). Missing files are not an error.
func (st *Store) Delete(id string) error {
	if !validJobID(id) {
		return nil
	}
	err := os.Remove(st.path(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

func readJob(path string) (*Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("server: parse job file %s: %w", path, err)
	}
	if _, err := parseJobState(string(j.State)); err != nil {
		return nil, fmt.Errorf("server: job file %s: %w", path, err)
	}
	if !validJobID(j.ID) {
		return nil, fmt.Errorf("server: job file %s has malformed ID %q", path, j.ID)
	}
	return &j, nil
}

// List loads every job in the store, oldest submission first (ties
// broken by ID, so the order — and hence recovery's re-enqueue order —
// is deterministic). Temp files are skipped; an unreadable job file is
// an error, not silently dropped state.
func (st *Store) List() ([]*Job, error) {
	entries, err := os.ReadDir(st.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		j, err := readJob(filepath.Join(st.dir, name))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if !jobs[a].Created.Equal(jobs[b].Created) {
			return jobs[a].Created.Before(jobs[b].Created)
		}
		return jobs[a].ID < jobs[b].ID
	})
	return jobs, nil
}
