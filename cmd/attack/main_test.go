package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/lock"
	"repro/internal/testcirc"
)

// writeKey writes key in the name=0/1 line format of lockgen -keyout.
func writeKey(t *testing.T, path string, key attack.Key) {
	t.Helper()
	names := make([]string, 0, len(key))
	for n := range key {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		v := 0
		if key[n] {
			v = 1
		}
		fmt.Fprintf(&b, "%s=%d\n", n, v)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// cli runs the command on args and returns its exit code and output.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	orig := testcirc.Random(rand.New(rand.NewSource(17)), 10, 80)
	lr, err := lock.TTLock(orig, lock.Options{KeySize: 8, Seed: 4, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	locked, origPath := filepath.Join(dir, "locked.bench"), filepath.Join(dir, "orig.bench")
	planted, complement := filepath.Join(dir, "key.txt"), filepath.Join(dir, "complement.txt")
	for path, c := range map[string]string{locked: bench.WriteString(lr.Locked), origPath: bench.WriteString(orig)} {
		if err := os.WriteFile(path, []byte(c), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeKey(t, planted, lr.Key)
	flipped := make(attack.Key, len(lr.Key))
	for n, v := range lr.Key {
		flipped[n] = !v
	}
	writeKey(t, complement, flipped)
	keyData, err := os.ReadFile(planted)
	if err != nil {
		t.Fatal(err)
	}
	const checked = "key validated against the oracle on 1024 random patterns"

	t.Run("fall", func(t *testing.T) {
		code, out, errOut := cli("-name", "fall", "-locked", locked, "-h", "0")
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, errOut)
		}
		for line := range strings.SplitSeq(string(keyData), "\n") {
			if line != "" && !strings.Contains(out, "  "+line+"\n") {
				t.Errorf("planted key bit %s missing from:\n%s", line, out)
			}
		}
		if !strings.Contains(out, "key 1 (via ") || !strings.Contains(out, "comparators: ") {
			t.Errorf("no FALL detail in:\n%s", out)
		}
	})
	t.Run("keyconfirm", func(t *testing.T) {
		code, out, errOut := cli("-name", "keyconfirm", "-locked", locked, "-oracle", origPath, planted)
		if code != 0 || !strings.Contains(out, "status: unique-key") || !strings.Contains(out, checked) {
			t.Errorf("planted key: exit %d, stdout:\n%s\nstderr %q", code, out, errOut)
		}
		if code, out, _ := cli("-name", "keyconfirm", "-locked", locked, "-oracle", origPath, complement); code != 3 || !strings.Contains(out, "status: refuted") {
			t.Errorf("complement key: exit %d, want 3 (refuted); stdout:\n%s", code, out)
		}
	})
	t.Run("sat", func(t *testing.T) {
		code, out, errOut := cli("-name", "sat", "-locked", locked, "-oracle", origPath, "-json")
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, errOut)
		}
		var res attack.ResultJSON
		if err := json.Unmarshal([]byte(out), &res); err != nil || res.Status != attack.StatusUniqueKey {
			t.Errorf("stdout is not one unique-key JSON result (%v):\n%s", err, out)
		}
		if !strings.Contains(errOut, checked) {
			t.Errorf("-json: oracle check line not on stderr %q", errOut)
		}
	})
	t.Run("bogus", func(t *testing.T) {
		code, _, errOut := cli("-name", "bogus", "-locked", locked)
		if code != 1 || !strings.HasPrefix(errOut, `attack: unknown attack "bogus"`) || strings.Count(errOut, "attack: ") != 1 {
			t.Errorf("unknown attack: exit %d, stderr %q; want 1 and one attack: prefix", code, errOut)
		}
		// One engine answers every query, so -portfolio is no flag.
		if code, out, _ := cli("-name", "fall", "-locked", locked, "-portfolio", "3"); code != 1 || out != "" {
			t.Errorf("-portfolio 3: exit %d, stdout %q; want 1 and no stdout", code, out)
		}
	})
	t.Run("keyless", func(t *testing.T) {
		if code, _, errOut := cli("-name", "fall", "-locked", origPath, "-h", "0"); code != 1 || !strings.Contains(errOut, "no key inputs") {
			t.Errorf("keyless netlist: exit %d, stderr %q; want 1", code, errOut)
		}
	})
}
