package campaign

// Claim-file work stealing: any number of workers — goroutines, processes,
// machines — drain one plan from a shared artifact directory at the speed
// of the sum of the fleet instead of the slowest shard. A worker claims
// the next unowned case by creating an O_EXCL claim file next to the
// case's artifact path, runs the case, writes the artifact (the usual
// atomic temp+rename), and releases the claim. Liveness is the claim
// file's mtime: owners heartbeat it while they work, so a claim whose
// mtime is older than the lease belongs to a dead (or hopelessly wedged)
// worker and is stolen — renamed away atomically, then re-created by
// exactly one thief. A killed worker therefore costs the fleet at most
// one lease of latency on the case it held, never a lost or duplicate
// artifact.
//
// The one theoretical race — a thief re-stats a claim as stale in the
// microseconds before another thief steals, releases and re-claims it —
// can at worst run a case twice. Cases are deterministic and artifact
// writes are atomic, so even that collision converges to one complete,
// correct artifact; the lease (minutes) dwarfs the window (microseconds).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
)

// ClaimSuffix is appended to an artifact path to form its claim path.
const ClaimSuffix = ".claim"

// DefaultLease is the default claim staleness horizon: a claim not
// heartbeated for this long is considered abandoned and re-stolen. It
// must comfortably exceed the heartbeat interval (lease/4) under
// scheduling jitter, and it bounds how long a dead worker delays its
// case.
const DefaultLease = 2 * time.Minute

// ClaimPath returns the claim-file path guarding a case's artifact.
func ClaimPath(dir, caseID string) string {
	return ArtifactPath(dir, caseID) + ClaimSuffix
}

// ClaimInfo is the advisory JSON body of a claim file: who holds the
// case, since when. Ownership itself is the file's existence (the
// O_EXCL create); the body only feeds `campaign status` displays, so a
// reader catching it half-written merely shows an unknown owner.
type ClaimInfo struct {
	Owner string    `json:"owner"`
	PID   int       `json:"pid,omitempty"`
	Case  string    `json:"case_id,omitempty"`
	Start time.Time `json:"start"`
}

// Claim is a held claim file. Release it exactly once when the case's
// artifact is on disk (or the work is abandoned); a worker that dies
// without releasing is covered by lease expiry.
type Claim struct {
	path string
	// Stolen reports the claim was taken over from an expired lease
	// rather than created fresh.
	Stolen bool

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// TryClaim attempts to acquire the claim file at path. It returns the
// held claim, or nil when another live worker owns the case (not an
// error — the caller moves on to the next case). A claim whose mtime
// is older than lease is stolen: renamed away atomically so exactly one
// thief wins, then re-created with O_EXCL. lease <= 0 means
// DefaultLease. The returned claim heartbeats its mtime every lease/4
// until released.
func TryClaim(path string, info ClaimInfo, lease time.Duration) (*Claim, error) {
	if lease <= 0 {
		lease = DefaultLease
	}
	stolen := false
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		st, serr := os.Stat(path)
		switch {
		case errors.Is(serr, fs.ErrNotExist):
			// Released between create and stat; the caller's next scan
			// pass (or another worker) gets the case.
			return nil, nil
		case serr != nil:
			return nil, serr
		case time.Since(st.ModTime()) <= lease:
			return nil, nil // a live owner is heartbeating it
		}
		// Stale: steal by renaming the specific file away. Rename is
		// atomic — exactly one thief wins — and unlike a direct unlink
		// it can never delete a fresh claim re-created at the same path
		// after this one was released.
		tomb, terr := os.CreateTemp(filepath.Dir(path), ".stale-*")
		if terr != nil {
			return nil, terr
		}
		tombName := tomb.Name()
		tomb.Close()
		if rerr := os.Rename(path, tombName); rerr != nil {
			os.Remove(tombName)
			if errors.Is(rerr, fs.ErrNotExist) {
				return nil, nil // another thief (or a release) got there first
			}
			return nil, rerr
		}
		os.Remove(tombName)
		stolen = true
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			return nil, nil // lost the post-steal race to another claimant
		}
	}
	if err != nil {
		return nil, err
	}
	if info.Start.IsZero() {
		info.Start = time.Now()
	}
	if info.PID == 0 {
		info.PID = os.Getpid()
	}
	if data, merr := json.Marshal(info); merr == nil {
		f.Write(data)
	}
	f.Close()
	c := &Claim{path: path, Stolen: stolen, stop: make(chan struct{})}
	c.wg.Add(1)
	go c.heartbeat(lease / 4)
	return c, nil
}

// heartbeat refreshes the claim's mtime until Release. Refresh errors
// are ignored: the worst case is the lease expiring under a live worker
// and the case being run twice, which converges (deterministic work,
// atomic artifact writes).
func (c *Claim) heartbeat(interval time.Duration) {
	defer c.wg.Done()
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			now := time.Now()
			os.Chtimes(c.path, now, now)
		}
	}
}

// Release stops the heartbeat and removes the claim file. Idempotent.
func (c *Claim) Release() {
	c.once.Do(func() {
		close(c.stop)
		c.wg.Wait()
		os.Remove(c.path)
	})
}

// ReadClaim loads a claim file's advisory info and its mtime (the
// liveness signal `campaign status` ages against the lease).
func ReadClaim(path string) (ClaimInfo, time.Time, error) {
	st, err := os.Stat(path)
	if err != nil {
		return ClaimInfo{}, time.Time{}, err
	}
	var info ClaimInfo
	if data, rerr := os.ReadFile(path); rerr == nil {
		json.Unmarshal(data, &info) // advisory: garbage just shows no owner
	}
	return info, st.ModTime(), nil
}

// DefaultOwner is the default worker identity used in claim files,
// progress lines and budget markers: host-pid.
func DefaultOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// sanitizeOwner maps a worker identity to a file-name-safe token.
func sanitizeOwner(owner string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, owner)
}

// budgetMarkerPrefix names the dot-files recording budget-exhausted
// workers (dot prefix: artifact scans skip them).
const budgetMarkerPrefix = ".budget-"

// BudgetStop records one worker that stopped claiming work because its
// wall-clock budget expired — distinct from a failure: the remaining
// cases are healthy, just unstarted, and a resumed run finishes them.
type BudgetStop struct {
	Owner     string    `json:"owner"`
	Stopped   time.Time `json:"stopped"`
	Remaining int       `json:"remaining"`
}

func writeBudgetMarker(dir, owner string, remaining int) error {
	data, err := json.MarshalIndent(BudgetStop{Owner: owner, Stopped: time.Now(), Remaining: remaining}, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(dir, budgetMarkerPrefix+sanitizeOwner(owner)+".json", append(data, '\n'))
}

func removeBudgetMarker(dir, owner string) {
	os.Remove(filepath.Join(dir, budgetMarkerPrefix+sanitizeOwner(owner)+".json"))
}

// clearBudgetMarkers removes every budget marker in dir — called when a
// run drains the plan completely, so stale "stopped early" reports do
// not outlive the work they described.
func clearBudgetMarkers(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if name := ent.Name(); strings.HasPrefix(name, budgetMarkerPrefix) && strings.HasSuffix(name, ".json") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
