// Package atomicfile writes files so that readers only ever observe
// complete ones: campaign artifacts and budget markers, attackd job
// records and on-disk verdict-memo records all go through WriteFile.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to dir/name through a temp file in the same
// directory plus a rename, so a process killed mid-write leaves no
// partial file under the final name. The temp file is removed on any
// failure. Temp names start with ".tmp-", which directory scanners
// skip.
func WriteFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-"+name+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
