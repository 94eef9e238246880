package attack

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/sat"
)

// This file is the CLI-facing glue for the two-tier verdict memo:
// every attack command exposes the same trio of flags (-memo,
// -memo-dir, -memo-max-bytes) and prints the same stderr summary, so
// the flag→cache construction and the summary formatting live here
// instead of being repeated per command.

// MemoFlags holds the parsed memo flag trio; its fields are
// NewMemoFromFlags's arguments.
type MemoFlags struct {
	Enabled  bool   // -memo
	Dir      string // -memo-dir
	MaxBytes int64  // -memo-max-bytes
}

// RegisterMemoFlags declares -memo, -memo-dir and -memo-max-bytes on fs:
// the memo part of RegisterFlags, and the memo flags of the commands
// that build their engines elsewhere (campaign run/retry, attackd).
func RegisterMemoFlags(fs *flag.FlagSet) *MemoFlags {
	m := &MemoFlags{}
	fs.BoolVar(&m.Enabled, "memo", false, "share one cross-query verdict cache across all solver queries (verdicts unchanged)")
	fs.StringVar(&m.Dir, "memo-dir", "", "persist the verdict cache in DIR, shared across runs and processes (implies -memo; verdicts unchanged)")
	fs.Int64Var(&m.MaxBytes, "memo-max-bytes", 0, "size cap for -memo-dir before LRU eviction (0 = 1 GiB)")
	return m
}

// NewMemoFromFlags builds the verdict memo the standard CLI flags
// describe: nil when caching is off, memory-only under -memo, and
// two-tier (memory + persistent on-disk store at dir) when -memo-dir
// is set — a non-empty dir implies -memo. maxBytes caps the disk
// store (<= 0 means sat.DefaultDiskMemoBytes).
func NewMemoFromFlags(enabled bool, dir string, maxBytes int64) (*sat.Memo, error) {
	if !enabled && dir == "" {
		return nil, nil
	}
	m := sat.NewMemo(sat.DefaultMemoEntries)
	if dir != "" {
		d, err := sat.OpenDiskMemo(dir, maxBytes)
		if err != nil {
			return nil, err
		}
		m.AttachDisk(d)
	}
	return m, nil
}

// FprintMemoSummary writes the shared stderr memo summary: one line of
// per-tier hit/miss accounting (entries < 0 hides the in-memory entry
// count for per-run stats that don't own the cache), plus — when the
// memo carries a disk tier — one line of on-disk store accounting,
// which names the I/O errors when the store could not be written.
// Stats are passed explicitly rather than read from memo so callers
// can print per-run counters against a shared cache.
func FprintMemoSummary(w io.Writer, memo *sat.Memo, st sat.MemoStats, entries int) {
	line := fmt.Sprintf("memo: %d hits / %d misses", st.Hits, st.Misses)
	if st.DiskHits > 0 || (memo != nil && memo.Disk() != nil) {
		line = fmt.Sprintf("memo: %d memory hits / %d disk hits / %d misses",
			st.Hits, st.DiskHits, st.Misses)
	}
	if t := st.Total(); t > 0 {
		line += fmt.Sprintf(" (%.1f%% hit rate", 100*float64(st.Hits+st.DiskHits)/float64(t))
		if entries >= 0 {
			line += fmt.Sprintf(", %d entries", entries)
		}
		line += ")"
	}
	if st.Capped > 0 {
		line += fmt.Sprintf(", %d capped", st.Capped)
	}
	fmt.Fprintln(w, line)
	if memo != nil {
		if disk := memo.Disk(); disk != nil {
			ds := disk.Stats()
			line := fmt.Sprintf("memo disk: %s: %d records / %d bytes (%d writes, %d evicted, %d corrupt",
				disk.Dir(), ds.Entries, ds.Bytes, ds.Writes, ds.Evictions, ds.Corrupt)
			if ds.Errors > 0 {
				line += fmt.Sprintf(", %d errors", ds.Errors)
			}
			fmt.Fprintln(w, line+")")
		}
	}
}
