package attack

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// ReadKeyFile parses a candidate key file of name=0/1 lines (the format
// written by cmd/lockgen's -keyout and accepted as φ candidates by
// cmd/attack). Blank lines and #-comments are ignored.
func ReadKeyFile(path string) (Key, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	key := make(Key)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.SplitN(text, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("%s:%d: expected name=0/1, got %q", path, line, text)
		}
		name := strings.TrimSpace(parts[0])
		switch strings.TrimSpace(parts[1]) {
		case "0":
			key[name] = false
		case "1":
			key[name] = true
		default:
			return nil, fmt.Errorf("%s:%d: bad key bit %q", path, line, parts[1])
		}
	}
	return key, sc.Err()
}
