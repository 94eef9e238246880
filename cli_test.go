package repro

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestToolUsageExitCodes pins the usage exit codes of the tools that
// have no test package of their own: a bad flag exits 1 like any other
// usage error, never the flag package's 2, and -help exits 0. (A bare
// -h is lockgen's Hamming-distance flag, so -help is the spelling every
// tool shares.) main exits the process, so the test drives built
// binaries.
func TestToolUsageExitCodes(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no go toolchain on PATH: %v", err)
	}
	dir := t.TempDir()
	tools := []string{"lockgen", "tracestat", "benchinfo"}
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, tool := range tools {
		args = append(args, "repro/cmd/"+tool)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tool := range tools {
		for arg, want := range map[string]int{"-bogus": 1, "-help": 0} {
			cmd := exec.Command(filepath.Join(dir, tool), arg)
			if err := cmd.Run(); cmd.ProcessState == nil {
				t.Fatalf("%s %s did not start: %v", tool, arg, err)
			}
			if got := cmd.ProcessState.ExitCode(); got != want {
				t.Errorf("%s %s: exit %d, want %d", tool, arg, got, want)
			}
		}
	}
}
