package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// A usage error exits 1 like any hard error, never 2, which the
// daemon's exit codes do not list; -h exits 0. main exits the process,
// so the test drives a built binary.
func TestUsageExitCodes(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no go toolchain on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "attackd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/attackd").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// -claim-lease is gone: one daemon owns a -dir.
	for arg, want := range map[string]int{"-bogus": 1, "-h": 0, "-claim-lease=1s": 1} {
		cmd := exec.Command(bin, arg)
		if err := cmd.Run(); cmd.ProcessState == nil {
			t.Fatalf("attackd %s did not start: %v", arg, err)
		}
		if got := cmd.ProcessState.ExitCode(); got != want {
			t.Errorf("attackd %s: exit %d, want %d", arg, got, want)
		}
	}
}
