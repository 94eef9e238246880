package sat

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testKey(tag byte) memoKey {
	var k memoKey
	k.formula[0] = tag
	k.formula[1] = ^tag
	k.assume = string([]byte{tag, tag + 1})
	return k
}

// sealRecord appends a valid checksum to a record body.
func sealRecord(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body[:len(body):len(body)], sum[:]...)
}

func satEntry(nVars int, tag uint64) *memoEntry {
	e := &memoEntry{st: Sat, nVars: nVars, bits: make([]uint64, (nVars+63)/64)}
	for i := range e.bits {
		e.bits[i] = tag + uint64(i)
	}
	// Mask the final word so value() round-trips cleanly.
	if rem := nVars & 63; rem != 0 {
		e.bits[len(e.bits)-1] &= 1<<uint(rem) - 1
	}
	return e
}

func sameEntry(a, b *memoEntry) bool {
	if a.st != b.st || a.nVars != b.nVars || len(a.bits) != len(b.bits) {
		return false
	}
	for i := range a.bits {
		if a.bits[i] != b.bits[i] {
			return false
		}
	}
	return true
}

// TestDiskMemoRoundTrip: Sat (with model) and Unsat records survive a
// Put/Get round trip, persist across a store reopen, and are counted
// in the resident accounting.
func TestDiskMemoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskMemo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	kSat, kUnsat := testKey(1), testKey(2)
	eSat := satEntry(130, 0xDEADBEEF)
	d.Put(kSat, eSat)
	d.Put(kUnsat, &memoEntry{st: Unsat})
	d.Put(testKey(3), &memoEntry{st: Unknown}) // must be ignored

	if got, ok := d.Get(kSat); !ok || !sameEntry(got, eSat) {
		t.Fatalf("Sat round trip failed: ok=%v got=%+v", ok, got)
	}
	if got, ok := d.Get(kUnsat); !ok || got.st != Unsat {
		t.Fatalf("Unsat round trip failed: ok=%v got=%+v", ok, got)
	}
	if _, ok := d.Get(testKey(3)); ok {
		t.Fatal("Unknown verdict was persisted")
	}
	st := d.Stats()
	if st.Writes != 2 || st.Entries != 2 || st.Bytes <= 0 {
		t.Fatalf("stats %+v", st)
	}

	// Reopen: records from the "previous process" are served and counted.
	d2, err := OpenDiskMemo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Get(kSat); !ok || !sameEntry(got, eSat) {
		t.Fatal("record did not survive reopen")
	}
	if st := d2.Stats(); st.Entries != 2 || st.Bytes != d.Stats().Bytes {
		t.Fatalf("reopen accounting %+v, want entries=2 bytes=%d", st, d.Stats().Bytes)
	}
}

// TestDiskMemoWriteErrors: a record whose fanout directory cannot be
// made (a regular file holds its name; unlike a chmod, this also fails
// for root) is counted in Errors, not written, and served as a miss.
func TestDiskMemoWriteErrors(t *testing.T) {
	d, err := OpenDiskMemo(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(5)
	if err := os.WriteFile(filepath.Dir(d.keyPath(key)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d.Put(key, &memoEntry{st: Unsat})
	if _, ok := d.Get(key); ok {
		t.Fatal("unwritten record served as a hit")
	}
	if st := d.Stats(); st.Errors != 1 || st.Writes != 0 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 error and nothing written", st)
	}
}

// TestDiskMemoCorruption: truncated, garbage, or wrong-key record
// files are rejected by validation, deleted, and served as misses —
// never as a verdict.
func TestDiskMemoCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string, data []byte)
	}{
		{"truncated", func(t *testing.T, path string, data []byte) {
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string, data []byte) {
			if err := os.WriteFile(path, []byte("not a record at all, but long enough to pass the length check........................................................."), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip", func(t *testing.T, path string, data []byte) {
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// A Sat record claiming 2^64-1 variables and holding no model
		// words, under a valid checksum: rounding the count up to words
		// wraps to 0 words, which matches the 0 bytes left.
		{"nvars-overflow", func(t *testing.T, path string, data []byte) {
			body := data[:len(data)-sha256.Size-8-1] // drop checksum, model word, nVars=64
			body = binary.AppendUvarint(body, math.MaxUint64)
			if err := os.WriteFile(path, sealRecord(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDiskMemo(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey(7)
			d.Put(key, satEntry(64, 42))
			path := d.keyPath(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, path, data)
			if _, ok := d.Get(key); ok {
				t.Fatal("corrupt record served as a hit")
			}
			st := d.Stats()
			if st.Corrupt != 1 {
				t.Fatalf("stats %+v, want 1 corrupt", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt record not deleted: %v", err)
			}
		})
	}

	// A record copied between keys (valid checksum, wrong key echo) is
	// equally rejected: the content address alone is not trusted.
	t.Run("wrong-key", func(t *testing.T) {
		d, err := OpenDiskMemo(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := testKey(8), testKey(9)
		d.Put(src, &memoEntry{st: Unsat})
		if err := os.MkdirAll(filepath.Dir(d.keyPath(dst)), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(d.keyPath(src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.keyPath(dst), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(dst); ok {
			t.Fatal("foreign-key record served as a hit")
		}
		if st := d.Stats(); st.Corrupt != 1 {
			t.Fatalf("stats %+v, want 1 corrupt", st)
		}
	})
}

// fuzzKey is the key FuzzDecodeRecord looks every record up under;
// the committed seed corpus holds records written for it.
var fuzzKey = memoKey{formula: sha256.Sum256([]byte("FuzzDecodeRecord")), assume: "\x06\x0b"}

// FuzzDecodeRecord: decodeRecord never panics, and accepts a record
// only when its key echo is the key looked up. An accepted Sat record
// holds 0 <= nVars variables in ceil(nVars/64) model words, and every
// accepted record re-encodes to exactly its bytes. Each input is tried
// as a whole record and, so that mutations get past the checksum, as a
// body sealed with a valid one.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, sealRecord(data)} {
			e, err := decodeRecord(rec, fuzzKey)
			if err != nil {
				continue
			}
			if e.st == Sat && (e.nVars < 0 || len(e.bits) != (e.nVars+63)/64) {
				t.Fatalf("accepted Sat record with %d vars in %d words", e.nVars, len(e.bits))
			}
			if e.st != Sat && (e.nVars != 0 || e.bits != nil) {
				t.Fatalf("accepted %v record with a model", e.st)
			}
			if again := encodeRecord(fuzzKey, e); !bytes.Equal(again, rec) {
				t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", again, rec)
			}
			otherFormula, otherAssume := fuzzKey, fuzzKey
			otherFormula.formula[0] ^= 1
			otherAssume.assume += "\x00"
			for _, other := range []memoKey{otherFormula, otherAssume} {
				if _, err := decodeRecord(rec, other); err == nil {
					t.Fatalf("record accepted under key %x/%q, which it does not echo", other.formula[:2], other.assume)
				}
			}
		}
	})
}

// TestDiskMemoGC: pushing the store past its byte cap evicts the
// least-recently-used records down to 90% of the cap, keeping the
// freshest entries resident.
func TestDiskMemoGC(t *testing.T) {
	d, err := OpenDiskMemo(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Learn the record size, then reopen with a cap that holds ~8.
	d.Put(testKey(0), &memoEntry{st: Unsat})
	recSize := d.Stats().Bytes
	if recSize <= 0 {
		t.Fatal("no record size")
	}
	oldest := time.Now().Add(-24 * time.Hour)
	os.Chtimes(d.keyPath(testKey(0)), oldest, oldest)
	d, err = OpenDiskMemo(d.Dir(), 8*recSize)
	if err != nil {
		t.Fatal(err)
	}
	// Backdate early records so LRU order is unambiguous even on
	// coarse-mtime filesystems.
	for i := byte(1); i <= 12; i++ {
		d.Put(testKey(i), &memoEntry{st: Unsat})
		old := time.Now().Add(-time.Duration(13-i) * time.Hour)
		os.Chtimes(d.keyPath(testKey(i)), old, old)
	}
	// One more put triggers compaction (resident > cap).
	d.Put(testKey(13), &memoEntry{st: Unsat})
	st := d.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions at %d bytes over a %d cap: %+v", st.Bytes, 8*recSize, st)
	}
	if st.Bytes > 8*recSize {
		t.Fatalf("still over cap after gc: %+v", st)
	}
	// The newest record survived; the oldest was evicted.
	if _, ok := d.Get(testKey(13)); !ok {
		t.Fatal("newest record evicted")
	}
	if _, ok := d.Get(testKey(0)); ok {
		t.Fatal("oldest record survived LRU eviction")
	}
}

// TestMemoTwoTier: a verdict solved in one "process" is answered from
// disk by a second (fresh memory, same directory), promoted into its
// memory tier, and then answered from memory — with per-tier stats and
// LastTier attribution at each step.
func TestMemoTwoTier(t *testing.T) {
	dir := t.TempDir()
	build := func(m *Memo) (*MemoEngine, Lit) {
		e := NewMemoEngine(m, nil, New())
		a, b := PosLit(e.NewVar()), PosLit(e.NewVar())
		e.AddClause(a, b)
		e.AddClause(a.Neg(), b)
		return e, a
	}

	d1, err := OpenDiskMemo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewMemo(0)
	m1.AttachDisk(d1)
	e1, a1 := build(m1)
	if st := e1.SolveAssuming([]Lit{a1}); st != Sat {
		t.Fatalf("cold solve: %v", st)
	}
	if e1.LastTier() != TierMiss {
		t.Fatalf("cold solve attributed %v", e1.LastTier())
	}
	wantModel := []bool{e1.Value(0), e1.Value(1)}

	// "Second process": fresh memory tier over the same directory.
	d2, err := OpenDiskMemo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMemo(0)
	m2.AttachDisk(d2)
	e2, a2 := build(m2)
	if st := e2.SolveAssuming([]Lit{a2}); st != Sat {
		t.Fatalf("warm solve: %v", st)
	}
	if e2.LastTier() != TierDisk {
		t.Fatalf("warm solve attributed %v, want disk", e2.LastTier())
	}
	if got := []bool{e2.Value(0), e2.Value(1)}; got[0] != wantModel[0] || got[1] != wantModel[1] {
		t.Fatalf("disk model %v, want %v", got, wantModel)
	}
	if st := m2.Stats(); st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("m2 stats %+v, want 1 disk hit", st)
	}

	// Promotion: the same query on the same memo is now a memory hit.
	e3, a3 := build(m2)
	if st := e3.SolveAssuming([]Lit{a3}); st != Sat || e3.LastTier() != TierMemory {
		t.Fatalf("promoted solve: %v tier %v, want Sat from memory", st, e3.LastTier())
	}
	if st := m2.Stats(); st.Hits != 1 || st.DiskHits != 1 {
		t.Fatalf("m2 stats %+v, want 1 memory + 1 disk hit", st)
	}
}

// TestMemoCappedWritesThrough: the in-memory cap does not block the
// disk tier — a capped result still lands on disk and is served from
// there by a later process.
func TestMemoCappedWritesThrough(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskMemo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(1)
	m.AttachDisk(d)
	solveOne := func(m *Memo, extra int) (*MemoEngine, Status) {
		e := NewMemoEngine(m, nil, New())
		a := PosLit(e.NewVar())
		e.AddClause(a)
		for i := 0; i < extra; i++ {
			e.AddClause(PosLit(e.NewVar()))
		}
		return e, e.Solve()
	}
	solveOne(m, 0) // fills the 1-entry memory tier
	solveOne(m, 1) // capped in memory...
	if st := m.Stats(); st.Capped != 1 {
		t.Fatalf("stats %+v, want 1 capped", st)
	}
	if st := d.Stats(); st.Writes != 2 {
		t.Fatalf("disk writes %d, want 2 (capped result written through)", st.Writes)
	}

	// ...but a fresh memory tier over the same store hits both on disk.
	d2, err := OpenDiskMemo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMemo(0)
	m2.AttachDisk(d2)
	if e, st := solveOne(m2, 0); st != Sat || e.LastTier() != TierDisk {
		t.Fatalf("first warm solve: %v tier %v", st, e.LastTier())
	}
	if e, st := solveOne(m2, 1); st != Sat || e.LastTier() != TierDisk {
		t.Fatalf("capped-key warm solve: %v tier %v, want disk hit", st, e.LastTier())
	}
}

// TestDiskMemoConcurrentSharing: many goroutines across two Memo
// "shards" hammer one directory with overlapping query sets; run under
// -race this is the multi-process torn-read regression test (within
// one process; the record format + rename discipline extends the
// guarantee across processes).
func TestDiskMemoConcurrentSharing(t *testing.T) {
	dir := t.TempDir()
	shard := func() *Memo {
		d, err := OpenDiskMemo(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMemo(0)
		m.AttachDisk(d)
		return m
	}
	shards := []*Memo{shard(), shard()}
	const goroutines, queries = 4, 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		for _, m := range shards {
			wg.Add(1)
			go func(m *Memo, g int) {
				defer wg.Done()
				for q := 0; q < queries; q++ {
					e := NewMemoEngine(m, nil, New())
					// Overlapping keys across goroutines and shards:
					// q clauses over q+1 vars, all forced true.
					lits := make([]Lit, 0, q+1)
					for i := 0; i <= q; i++ {
						l := PosLit(e.NewVar())
						e.AddClause(l)
						lits = append(lits, l)
					}
					if st := e.Solve(); st != Sat {
						t.Errorf("g%d q%d: %v", g, q, st)
						return
					}
					for _, l := range lits {
						if !e.LitTrue(l) {
							t.Errorf("g%d q%d: forced literal false in model", g, q)
							return
						}
					}
				}
			}(m, g)
		}
	}
	wg.Wait()
	var agg MemoStats
	for _, m := range shards {
		agg = agg.Add(m.Stats())
	}
	if agg.Total() != int64(2*goroutines*queries) {
		t.Fatalf("aggregated stats %+v, want %d total", agg, 2*goroutines*queries)
	}
	if agg.Hits+agg.DiskHits == 0 {
		t.Fatalf("no cross-goroutine hits at all: %+v", agg)
	}
}

// TestMemoEngineGarbageRecordVerdict is the acceptance property: a
// garbage record planted at exactly the key a live query will look up
// cannot change the verdict — the engine falls through to a real solve.
func TestMemoEngineGarbageRecordVerdict(t *testing.T) {
	dir := t.TempDir()
	build := func(m *Memo) *MemoEngine {
		e := NewMemoEngine(m, nil, New())
		a := PosLit(e.NewVar())
		e.AddClause(a)
		e.AddClause(a.Neg()) // unsatisfiable
		return e
	}
	d, err := OpenDiskMemo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(0)
	m.AttachDisk(d)
	if st := build(m).Solve(); st != Unsat {
		t.Fatalf("reference solve: %v", st)
	}

	// Overwrite the record with garbage, then query it from a fresh
	// process (fresh memory tier, same directory).
	var recPath string
	d.walk(func(path string, info os.FileInfo) { recPath = path })
	if recPath == "" {
		t.Fatal("no record written")
	}
	if err := os.WriteFile(recPath, []byte("garbage garbage garbage garbage garbage garbage garbage garbage garbage garbage garbage garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDiskMemo(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMemo(0)
	m2.AttachDisk(d2)
	e := build(m2)
	if st := e.Solve(); st != Unsat {
		t.Fatalf("garbage record changed the verdict: %v", st)
	}
	if e.LastTier() != TierMiss {
		t.Fatalf("garbage record attributed %v, want miss", e.LastTier())
	}
	if st := d2.Stats(); st.Corrupt != 1 {
		t.Fatalf("disk stats %+v, want 1 corrupt", st)
	}
}
