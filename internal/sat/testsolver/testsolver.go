// Package testsolver builds the stub DIMACS solver (see the stub
// subdirectory) for tests that exercise the DIMACS-pipe engine
// hermetically: procengine's own tests, the solver differential test,
// the harness, campaign and FALL grid runs on the stub, and the CI jobs
// diffing fallbench runs on the stub against the default-engine report.
package testsolver

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// Build compiles the stub solver once per test process and returns the
// binary's path. Tests are skipped when no go toolchain is available.
func Build(tb testing.TB) string {
	tb.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		tb.Skipf("no go toolchain on PATH: %v", err)
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "stubsolver")
		if err != nil {
			buildErr = err
			return
		}
		bin := filepath.Join(dir, "stub")
		if runtime.GOOS == "windows" {
			bin += ".exe"
		}
		cmd := exec.Command("go", "build", "-o", bin, "repro/internal/sat/testsolver/stub")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			tb.Logf("building stub solver: %v\n%s", err, out)
			return
		}
		buildPath = bin
	})
	if buildErr != nil {
		tb.Fatalf("building stub solver: %v", buildErr)
	}
	return buildPath
}
