package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cli runs the command on args and returns its exit code and output.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// A run that stops on a usage error must not leave a half-written
// trace behind: suite flags are checked before the trace opens, and a
// check after it closes the trace on the way out.
func TestUsageErrorsLeaveNoTraceTemp(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-scale", "tiny", "-trace", filepath.Join(dir, "t.ndjson")},
		{"-scale", "tiny", "-fig5", "bogus", "-trace", filepath.Join(dir, "t2.ndjson")},
		{"-scale", "tiny", "-portfolio", "1", "-adapt-after", "3", "-trace", filepath.Join(dir, "t3.ndjson")},
		// With a suite, the -adapt-after check runs after the trace opened.
		{"-table1", "-scale", "tiny", "-portfolio", "1", "-adapt-after", "3", "-trace", filepath.Join(dir, "t4.ndjson")},
	} {
		if code, _, stderr := cli(args...); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr %q)", args, code, stderr)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			t.Errorf("left a trace temp file behind: %s", ent.Name())
		}
	}
	// The trace the last run opened was closed (renamed into place), not
	// abandoned.
	if _, err := os.Stat(filepath.Join(dir, "t4.ndjson")); err != nil {
		t.Errorf("trace opened before a usage error was not closed: %v", err)
	}
}

func TestTable1(t *testing.T) {
	code, stdout, stderr := cli("-table1", "-scale", "tiny", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 8 || lines[0] != "=== Table I (regenerated) ===" || !strings.HasPrefix(lines[1], "ckt ") {
		t.Fatalf("want the Table I header, column line and 6 rows, got:\n%s", stdout)
	}
}
