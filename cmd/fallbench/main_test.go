package main

import (
	"errors"
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

// failingWriter rejects every write, standing in for a closed stdout.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("stdout closed") }

// A run that stops on an error must not leave a half-written trace
// behind: suite flags are checked before the trace opens, and an error
// after it (here a failing stdout) closes the trace on the way out.
func TestUsageErrorsLeaveNoTraceTemp(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-scale", "tiny", "-trace", filepath.Join(dir, "t.ndjson")},
		{"-scale", "tiny", "-fig5", "bogus", "-trace", filepath.Join(dir, "t2.ndjson")},
		{"-summary", "-scale", "tiny", "-portfolio", "3"}, // no such flag
	} {
		if code, _, stderr := cli(args...); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr %q)", args, code, stderr)
		}
	}
	var errOut strings.Builder
	if code := run([]string{"-table1", "-scale", "tiny", "-trace", filepath.Join(dir, "t3.ndjson")}, failingWriter{}, &errOut); code != 1 {
		t.Errorf("failing stdout: exit %d, want 1 (stderr %q)", code, errOut.String())
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
	if _, err := os.Stat(filepath.Join(dir, "t3.ndjson")); err != nil {
		t.Errorf("trace opened before the error was not closed: %v", err)
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
