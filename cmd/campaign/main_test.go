package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildCommand compiles the campaign command into a temporary
// directory and returns the binary's path; main exits the process, so
// exit codes are only observable on a built binary.
func buildCommand(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no go toolchain on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "campaign")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/campaign").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A usage error exits 1 on every subcommand, never 2 (completed with
// failed cases), and writes nothing to stdout; -h exits 0.
func TestUsageExitCodes(t *testing.T) {
	bin := buildCommand(t)
	exitCode := func(args ...string) (int, string) {
		var stdout bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		if err := cmd.Run(); cmd.ProcessState == nil {
			t.Fatalf("campaign %v did not start: %v", args, err)
		}
		return cmd.ProcessState.ExitCode(), stdout.String()
	}
	for _, sub := range []string{"plan", "run", "retry", "merge", "status", "watch"} {
		if code, stdout := exitCode(sub, "-dir", t.TempDir(), "-bogus"); code != 1 || stdout != "" {
			t.Errorf("campaign %s -bogus: exit %d, stdout %q; want exit 1 and no stdout", sub, code, stdout)
		}
	}
	if code, _ := exitCode("plan", "-h"); code != 0 {
		t.Errorf("campaign plan -h: exit %d, want 0", code)
	}
}
