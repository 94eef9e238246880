package sat

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
)

// DiskMemo is the persistent L2 tier of the verdict memo: a
// content-addressed store of solved (formula hash, assumptions) →
// verdict records under a directory, shared by every
// process pointed at it — campaign shards running concurrently,
// reruns of the same suite, daemon restarts. Records are laid out in
// a 256-way hash fanout (dir/ab/<digest>.rec) and written with
// atomicfile.WriteFile, like campaign artifacts, so
// concurrent writers and kill -9'd runs never leave a torn record.
// Every record is self-verifying (magic, key echo, whole-record
// checksum): a truncated, garbage, or foreign-key file degrades to a
// cache miss — never a wrong verdict — and is deleted on sight.
//
// The store is byte-bounded: once Put pushes the resident size past
// the cap, a compaction pass evicts least-recently-used records
// (access is stamped on the file's mtime at every hit) down to 90% of
// the cap, so long-lived daemons and append-forever campaign
// directories stay bounded. Eviction only ever turns future hits into
// misses; it cannot corrupt concurrent readers, who see either a
// complete record or ENOENT.
//
// A DiskMemo is safe for concurrent use by any number of goroutines
// and coexists with other processes on the same directory: accounting
// drifts at most until the next compaction walk, which recounts from
// the filesystem.
type DiskMemo struct {
	dir      string
	maxBytes int64

	writes, evictions, corrupt, errors atomic.Int64

	mu      sync.Mutex // guards bytes/entries accounting and GC runs
	bytes   int64
	entries int64
	inGC    bool
}

// DefaultDiskMemoBytes is the store's default size cap (1 GiB —
// roomy for millions of cone-query verdicts, small enough that a
// forgotten campaign directory is not a disk incident).
const DefaultDiskMemoBytes = 1 << 30

// DiskMemoStats is a snapshot of the on-disk tier's accounting: the
// shape behind the daemon's attackd_memo_disk_* series and CLI stderr
// summaries. Hits and misses are counted once, by the Memo that looks
// records up (MemoStats.DiskHits and Misses).
type DiskMemoStats struct {
	// Writes counts records persisted; Evictions records removed by
	// the size-cap compaction.
	Writes    int64 `json:"writes"`
	Evictions int64 `json:"evictions,omitempty"`
	// Corrupt counts records rejected by validation (truncated,
	// garbage, or foreign-key files); each was deleted and served as a
	// miss.
	Corrupt int64 `json:"corrupt,omitempty"`
	// Errors counts I/O failures (unwritable records, unreadable
	// directories); the memo degrades to the memory tier.
	Errors int64 `json:"errors,omitempty"`
	// Entries / Bytes are the resident record count and total size
	// (approximate between compactions when other processes share the
	// directory).
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// OpenDiskMemo opens (creating if needed) the record store under dir
// with the given size cap in bytes (<= 0 means DefaultDiskMemoBytes).
// Existing records — from earlier runs, other shards, a previous
// daemon — are counted and served immediately.
func OpenDiskMemo(dir string, maxBytes int64) (*DiskMemo, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMemoBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sat: disk memo: %w", err)
	}
	d := &DiskMemo{dir: dir, maxBytes: maxBytes}
	bytes, entries := int64(0), int64(0)
	d.walk(func(path string, info fs.FileInfo) {
		bytes += info.Size()
		entries++
	})
	d.bytes, d.entries = bytes, entries
	return d, nil
}

// Dir returns the store's directory.
func (d *DiskMemo) Dir() string { return d.dir }

// Stats returns the tier's accounting snapshot.
func (d *DiskMemo) Stats() DiskMemoStats {
	d.mu.Lock()
	bytes, entries := d.bytes, d.entries
	d.mu.Unlock()
	return DiskMemoStats{
		Writes:    d.writes.Load(),
		Evictions: d.evictions.Load(),
		Corrupt:   d.corrupt.Load(),
		Errors:    d.errors.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}

// recordSuffix is the record file extension; anything else in the
// fanout directories (temp files, stray artifacts) is ignored.
const recordSuffix = ".rec"

// keyPath maps a memo key to its content-addressed record path: the
// SHA-256 of the canonical key bytes, hex-encoded, fanned out on the
// first byte so no single directory collects millions of entries.
func (d *DiskMemo) keyPath(key memoKey) string {
	digest := sha256.New()
	digest.Write(key.formula[:])
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(key.assume)))
	digest.Write(buf[:n])
	digest.Write([]byte(key.assume))
	h := hex.EncodeToString(digest.Sum(nil))
	return filepath.Join(d.dir, h[:2], h[2:]+recordSuffix)
}

// Get resolves key from disk. A missing record is a plain miss; a
// record that fails validation (truncation, garbage, key mismatch) is
// deleted, counted in Corrupt, and served as a miss — the store can
// slow a query down, never change its verdict. Hits refresh the
// record's access stamp (mtime) for the LRU compaction.
func (d *DiskMemo) Get(key memoKey) (*memoEntry, bool) {
	path := d.keyPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	e, err := decodeRecord(data, key)
	if err != nil {
		d.corrupt.Add(1)
		if rmErr := os.Remove(path); rmErr == nil {
			d.account(-int64(len(data)), -1)
		}
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort LRU stamp
	return e, true
}

// Put persists a decided record atomically (atomicfile.WriteFile in
// the record's own fanout directory, so the rename never crosses a
// filesystem boundary) and triggers compaction when the store
// outgrows its cap. Write failures are counted and swallowed: the
// cache is an accelerator, not a durability contract.
func (d *DiskMemo) Put(key memoKey, e *memoEntry) {
	if e == nil || e.st == Unknown {
		return
	}
	path := d.keyPath(key)
	fan := filepath.Dir(path)
	if err := os.MkdirAll(fan, 0o755); err != nil {
		d.errors.Add(1)
		return
	}
	data := encodeRecord(key, e)
	var replaced int64
	if fi, err := os.Stat(path); err == nil {
		replaced = fi.Size()
	}
	if err := atomicfile.WriteFile(fan, filepath.Base(path), data); err != nil {
		d.errors.Add(1)
		return
	}
	d.writes.Add(1)
	if replaced > 0 {
		d.account(int64(len(data))-replaced, 0)
	} else {
		d.account(int64(len(data)), 1)
	}
	d.maybeGC()
}

// account adjusts the resident-size approximation.
func (d *DiskMemo) account(deltaBytes, deltaEntries int64) {
	d.mu.Lock()
	d.bytes += deltaBytes
	d.entries += deltaEntries
	if d.bytes < 0 {
		d.bytes = 0
	}
	if d.entries < 0 {
		d.entries = 0
	}
	d.mu.Unlock()
}

// maybeGC runs one compaction pass when the store exceeds its cap; at
// most one pass runs at a time per process, and concurrent processes
// compacting the same directory merely race to delete the same oldest
// files (a lost race is a no-op).
func (d *DiskMemo) maybeGC() {
	d.mu.Lock()
	over := d.bytes > d.maxBytes && !d.inGC
	if over {
		d.inGC = true
	}
	d.mu.Unlock()
	if !over {
		return
	}
	defer func() {
		d.mu.Lock()
		d.inGC = false
		d.mu.Unlock()
	}()
	d.gc()
}

// gcRecord is one record file the compaction walk found.
type gcRecord struct {
	path  string
	size  int64
	atime time.Time
}

// gc recounts the store from the filesystem (healing cross-process
// accounting drift) and, while over the cap, evicts records oldest
// access stamp first until resident size is at most 90% of the cap.
func (d *DiskMemo) gc() {
	var recs []gcRecord
	total := int64(0)
	d.walk(func(path string, info fs.FileInfo) {
		recs = append(recs, gcRecord{path: path, size: info.Size(), atime: info.ModTime()})
		total += info.Size()
	})
	target := d.maxBytes - d.maxBytes/10
	entries := int64(len(recs))
	if total > target {
		sort.Slice(recs, func(i, j int) bool { return recs[i].atime.Before(recs[j].atime) })
		for _, r := range recs {
			if total <= target {
				break
			}
			if err := os.Remove(r.path); err != nil {
				continue // another process won the eviction race
			}
			total -= r.size
			entries--
			d.evictions.Add(1)
		}
	}
	d.mu.Lock()
	d.bytes, d.entries = total, entries
	d.mu.Unlock()
}

// walk visits every record file in the fanout tree.
func (d *DiskMemo) walk(fn func(path string, info fs.FileInfo)) {
	fans, err := os.ReadDir(d.dir)
	if err != nil {
		d.errors.Add(1)
		return
	}
	for _, fan := range fans {
		if !fan.IsDir() || strings.HasPrefix(fan.Name(), ".") {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(d.dir, fan.Name()))
		if err != nil {
			continue
		}
		for _, ent := range ents {
			name := ent.Name()
			if ent.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, recordSuffix) {
				continue
			}
			info, err := ent.Info()
			if err != nil {
				continue // deleted under us
			}
			fn(filepath.Join(d.dir, fan.Name(), name), info)
		}
	}
}

// Record encoding (version 2). Every field the lookup depends on is in
// the record, and the whole record is covered by a trailing SHA-256,
// so validation catches truncation, bit rot, garbage, and — via the
// key echo — content-address collisions or records copied between
// keys:
//
//	magic    [8]byte  "FALLMEM2"
//	status   1 byte   1 = Sat, 2 = Unsat
//	formula  [32]byte key echo: formula hash
//	assume   uvarint length + bytes (key echo: packed assumptions)
//	model    (Sat only) uvarint nVars + ceil(nVars/64) × 8 bytes LE
//	checksum [32]byte SHA-256 of everything above
//
// Version 1 records ("FALLMEM1") were keyed by a frozen-prefix hash
// and a delta hash; they fail the magic check and read as misses.
var diskMemoMagic = [8]byte{'F', 'A', 'L', 'L', 'M', 'E', 'M', '2'}

// encodeRecord serializes one verdict record.
func encodeRecord(key memoKey, e *memoEntry) []byte {
	var b bytes.Buffer
	b.Write(diskMemoMagic[:])
	if e.st == Sat {
		b.WriteByte(1)
	} else {
		b.WriteByte(2)
	}
	b.Write(key.formula[:])
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(key.assume)))
	b.Write(buf[:n])
	b.WriteString(key.assume)
	if e.st == Sat {
		n = binary.PutUvarint(buf[:], uint64(e.nVars))
		b.Write(buf[:n])
		var w [8]byte
		for _, word := range e.bits {
			binary.LittleEndian.PutUint64(w[:], word)
			b.Write(w[:])
		}
	}
	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])
	return b.Bytes()
}

// readUvarint reads a uvarint and rejects a non-minimal encoding, so
// a record is accepted only in the one byte form encodeRecord writes.
func readUvarint(r *bytes.Reader) (uint64, error) {
	before := r.Len()
	x, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	var buf [binary.MaxVarintLen64]byte
	if before-r.Len() != binary.PutUvarint(buf[:], x) {
		return 0, fmt.Errorf("sat: disk memo record has a non-minimal varint")
	}
	return x, nil
}

// decodeRecord parses and validates a record against the key the
// caller looked up. Any deviation — short file, bad magic, checksum
// mismatch, key mismatch, impossible field — is an error; the caller
// treats it as a miss.
func decodeRecord(data []byte, key memoKey) (*memoEntry, error) {
	if len(data) < len(diskMemoMagic)+1+sha256.Size+sha256.Size {
		return nil, fmt.Errorf("sat: disk memo record truncated (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("sat: disk memo record checksum mismatch")
	}
	if !bytes.Equal(body[:len(diskMemoMagic)], diskMemoMagic[:]) {
		return nil, fmt.Errorf("sat: disk memo record has bad magic")
	}
	r := bytes.NewReader(body[len(diskMemoMagic):])
	stByte, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	var st Status
	switch stByte {
	case 1:
		st = Sat
	case 2:
		st = Unsat
	default:
		return nil, fmt.Errorf("sat: disk memo record has status %d", stByte)
	}
	var formula [sha256.Size]byte
	if _, err := io.ReadFull(r, formula[:]); err != nil {
		return nil, err
	}
	alen, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if alen > uint64(r.Len()) {
		return nil, fmt.Errorf("sat: disk memo record assumption length %d exceeds record", alen)
	}
	assume := make([]byte, alen)
	if _, err := io.ReadFull(r, assume); err != nil {
		return nil, err
	}
	if formula != key.formula || string(assume) != key.assume {
		return nil, fmt.Errorf("sat: disk memo record keyed for a different query")
	}
	e := &memoEntry{st: st}
	if st == Sat {
		nVars, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		// Bound nVars by the bits left before rounding it up to words:
		// near 2^64 the rounding wraps to 0 words.
		if nVars > 8*uint64(r.Len()) {
			return nil, fmt.Errorf("sat: disk memo record claims %d vars in %d bytes", nVars, r.Len())
		}
		words := (nVars + 63) / 64
		if words*8 != uint64(r.Len()) {
			return nil, fmt.Errorf("sat: disk memo record model size mismatch (%d vars, %d bytes left)", nVars, r.Len())
		}
		e.nVars = int(nVars)
		e.bits = make([]uint64, words)
		var w [8]byte
		for i := range e.bits {
			if _, err := io.ReadFull(r, w[:]); err != nil {
				return nil, err
			}
			e.bits[i] = binary.LittleEndian.Uint64(w[:])
		}
	} else if r.Len() != 0 {
		return nil, fmt.Errorf("sat: disk memo record has %d trailing bytes", r.Len())
	}
	return e, nil
}
