package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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
	for _, sub := range []string{"plan", "run", "retry", "merge", "status"} {
		if code, stdout := exitCode(sub, "-dir", t.TempDir(), "-bogus"); code != 1 || stdout != "" {
			t.Errorf("campaign %s -bogus: exit %d, stdout %q; want exit 1 and no stdout", sub, code, stdout)
		}
	}
	if code, _ := exitCode("plan", "-h"); code != 0 {
		t.Errorf("campaign plan -h: exit %d, want 0", code)
	}
	// One engine answers every query, so -portfolio is no flag.
	if code, stdout := exitCode("plan", "-dir", t.TempDir(), "-portfolio", "3"); code != 1 || stdout != "" {
		t.Errorf("campaign plan -portfolio 3: exit %d, stdout %q; want exit 1 and no stdout", code, stdout)
	}
	// A script polls status instead of watch, and tracestat merges
	// trace files instead of merge -traces.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"watch", "-dir", t.TempDir()}, `unknown subcommand "watch"`},
		{[]string{"merge", "-dir", t.TempDir(), "-traces", "x"}, "flag provided but not defined: -traces"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		if err := cmd.Run(); cmd.ProcessState == nil {
			t.Fatalf("campaign %v did not start: %v", tc.args, err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("campaign %v: exit %d, stderr %q; want exit 1 and %q", tc.args, code, stderr.String(), tc.want)
		}
	}
}

// An error from internal/campaign, which already names the package,
// prints with one "campaign: " prefix.
func TestErrorPrefixedOnce(t *testing.T) {
	bin := buildCommand(t)
	dir := t.TempDir()
	if out, err := exec.Command(bin, "plan", "-dir", dir, "-scale", "tiny", "-suites", "summary").CombinedOutput(); err != nil {
		t.Fatalf("campaign plan: %v\n%s", err, out)
	}
	plan := filepath.Join(dir, "plan.json")
	data, err := os.ReadFile(plan)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte("{"), []byte(`{"bogus": 1,`), 1)
	if err := os.WriteFile(plan, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "status", "-dir", dir)
	cmd.Stderr = &stderr
	if err := cmd.Run(); cmd.ProcessState == nil {
		t.Fatalf("campaign status did not start: %v", err)
	}
	msg := stderr.String()
	if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.HasPrefix(msg, "campaign: parse ") || strings.Count(msg, "campaign: ") != 1 {
		t.Errorf("status on a plan with an unknown field: exit %d, stderr %q; want 1 and one campaign: prefix", code, msg)
	}
}
