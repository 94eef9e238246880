package sat

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"
)

// This file implements the cross-query verdict memo cache. Campaign
// cases across a run, reruns of a suite and daemon jobs repeatedly
// solve identical formulas (same cone, same unateness/comparator
// query); the memo keys every query by (formula hash, assumptions) and
// returns the recorded verdict and model without touching a solver.
// The wrapper preserves exact engine semantics: on a cache miss it
// feeds its inner engine the logged variable/clause calls and first
// replays the engine's whole query history, so the inner engine
// reaches the same incremental state (learnt clauses included) it
// would have reached without the cache — verdicts AND models match the
// uncached run.
//
// The memo is two-tiered: the in-memory map (L1) answers within a
// process, and an optional content-addressed on-disk store (L2,
// DiskMemo in diskmemo.go) shares verdicts across processes — campaign
// shards, reruns, daemon restarts. Lookups fall through memory → disk
// → inner engine; decided misses write through to both tiers, and a
// disk hit is promoted into memory.

// MemoTier identifies which tier answered a query (per-query hit
// attribution for tracing and counters).
type MemoTier int

const (
	// TierMiss: no tier had the verdict; the inner engine solved it.
	TierMiss MemoTier = iota
	// TierMemory: answered by the in-memory map (L1).
	TierMemory
	// TierDisk: answered by the on-disk store (L2).
	TierDisk
)

// String renders the tier as the trace-span attribution value.
func (t MemoTier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return "miss"
	}
}

// MemoStats is a per-tier hit/miss snapshot of memo-cache accounting —
// the shape serialized into harness outcomes and campaign merges, and
// the source of the daemon's attackd_memo_{hits,misses,capped}_total
// series. Hits counts in-memory (L1) answers, DiskHits on-disk (L2)
// answers, Misses queries the inner engine solved. Capped counts
// decided results that were recomputed but could not be stored in
// memory because the entry cap was reached (they still reach the disk
// tier when one is attached). The new fields are omitempty so
// disk-less, uncapped runs serialize byte-identically to before.
type MemoStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	DiskHits int64 `json:"disk_hits,omitempty"`
	Capped   int64 `json:"capped,omitempty"`
}

// Add returns the entrywise sum (campaign merge aggregation).
func (s MemoStats) Add(o MemoStats) MemoStats {
	return MemoStats{
		Hits:     s.Hits + o.Hits,
		Misses:   s.Misses + o.Misses,
		DiskHits: s.DiskHits + o.DiskHits,
		Capped:   s.Capped + o.Capped,
	}
}

// Total returns the number of accounted queries (every tier's hits
// plus the misses; Capped re-counts a subset of Misses and is
// excluded).
func (s MemoStats) Total() int64 { return s.Hits + s.DiskHits + s.Misses }

// MemoCounters accumulates per-tier hit/miss counts for one accounting
// scope (a SolverSetup, i.e. one attack run) against a possibly shared
// Memo. Safe for concurrent use.
type MemoCounters struct {
	hits, diskHits, misses, capped atomic.Int64
}

// Snapshot returns the current counts.
func (c *MemoCounters) Snapshot() MemoStats {
	return MemoStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		DiskHits: c.diskHits.Load(),
		Capped:   c.capped.Load(),
	}
}

// DefaultMemoEntries bounds an unbounded-cap Memo: enough for every
// distinct query of a large campaign while keeping worst-case memory
// proportional to distinct models stored.
const DefaultMemoEntries = 1 << 20

// memoKey identifies a query: the formula hash (opLog.hash) and the
// packed assumptions.
type memoKey struct {
	formula [sha256.Size]byte
	assume  string
}

// memoEntry is one recorded verdict. Satisfying models are packed as
// bitsets — one bit per variable instead of one byte — because a
// DefaultMemoEntries-sized cache of FALL-scale models is memory-bound
// on exactly this array; the same packing is the on-disk record's
// model encoding, so disk records load without repacking.
type memoEntry struct {
	st    Status
	nVars int      // model length (variables at solve time)
	bits  []uint64 // nil unless st == Sat; bit v = model value of var v
}

// packModel builds the bitset model of an engine's last satisfying
// assignment over vars [0, n).
func packModel(e Engine, n int) []uint64 {
	bits := make([]uint64, (n+63)/64)
	for v := 0; v < n; v++ {
		if e.Value(v) {
			bits[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return bits
}

// value returns variable v's recorded model value (false outside the
// model, matching Engine.Value semantics for unknown variables).
func (e *memoEntry) value(v int) bool {
	if e.st != Sat || v < 0 || v >= e.nVars {
		return false
	}
	return e.bits[v>>6]>>(uint(v)&63)&1 == 1
}

// Memo is the two-tier verdict cache keyed by (formula hash,
// assumptions). It is safe for concurrent use and is typically
// shared across every engine of a run — or, in the daemon, across
// jobs — so identical sub-queries are solved once. Only decided
// verdicts are stored (Unknown is always recomputed); the first
// stored entry for a key wins, keeping replays deterministic. An
// attached DiskMemo (AttachDisk) extends the cache across processes:
// memory misses fall through to disk, disk hits are promoted, and
// fresh results write through to both tiers.
type Memo struct {
	mu       sync.Mutex
	max      int
	entries  map[memoKey]*memoEntry
	hits     int64
	diskHits int64
	misses   int64
	capped   int64
	disk     *DiskMemo
}

// NewMemo returns a memo holding at most max in-memory entries (max <=
// 0 means DefaultMemoEntries). Beyond the cap, new results are
// recomputed but not stored in memory (counted in MemoStats.Capped;
// an attached disk tier still records them).
func NewMemo(max int) *Memo {
	if max <= 0 {
		max = DefaultMemoEntries
	}
	return &Memo{max: max, entries: make(map[memoKey]*memoEntry)}
}

// AttachDisk adds d as the memo's on-disk L2 tier (nil detaches).
// Attach before solving starts; the tier choice is not synchronized
// against in-flight lookups.
func (m *Memo) AttachDisk(d *DiskMemo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.disk = d
}

// Disk returns the attached on-disk tier, nil when memory-only.
func (m *Memo) Disk() *DiskMemo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disk
}

// Stats returns the memo's global per-tier hit/miss counts.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, DiskHits: m.diskHits, Capped: m.capped}
}

// Len returns the number of in-memory entries.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// lookup resolves key through the tiers: memory, then disk (promoting
// a disk hit into memory, cap permitting). The disk read happens
// outside the memory lock so concurrent engines never serialize on
// I/O.
func (m *Memo) lookup(key memoKey) (*memoEntry, MemoTier) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.hits++
		m.mu.Unlock()
		return e, TierMemory
	}
	d := m.disk
	m.mu.Unlock()
	if d != nil {
		if e, ok := d.Get(key); ok {
			m.mu.Lock()
			m.diskHits++
			if _, exists := m.entries[key]; !exists && len(m.entries) < m.max {
				m.entries[key] = e
			}
			m.mu.Unlock()
			return e, TierDisk
		}
	}
	m.mu.Lock()
	m.misses++
	m.mu.Unlock()
	return nil, TierMiss
}

// store records a decided verdict in both tiers, returning whether the
// in-memory cap dropped it (Capped accounting). The disk write-through
// happens even when memory is capped — the disk tier has its own
// byte-bounded GC — and outside the memory lock.
func (m *Memo) store(key memoKey, e *memoEntry) (capped bool) {
	if e.st == Unknown {
		return false
	}
	m.mu.Lock()
	fresh := false
	if _, exists := m.entries[key]; !exists {
		if len(m.entries) < m.max {
			m.entries[key] = e
			fresh = true
		} else {
			m.capped++
			capped = true
			fresh = true
		}
	}
	d := m.disk
	m.mu.Unlock()
	if d != nil && fresh {
		d.Put(key, e)
	}
	return capped
}

func assumeKey(as []Lit) string {
	b := make([]byte, 0, len(as)*2)
	var buf [binary.MaxVarintLen64]byte
	for _, l := range as {
		n := binary.PutUvarint(buf[:], uint64(l))
		b = append(b, buf[:n]...)
	}
	return string(b)
}

// logOp is one step of a MemoEngine's op log: allocate newVars fresh
// variables, then (when hasClause) add clause. Recording the
// interleaving — rather than "all vars, then all clauses" — keeps the
// replay into the inner engine call-for-call identical to direct
// construction, which matters because unit propagation fires during
// AddClause on the internal engine.
type logOp struct {
	newVars   int
	clause    []Lit
	hasClause bool
}

// appendTo appends the op's canonical byte encoding to b.
func (op logOp) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(op.newVars))
	if !op.hasClause {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(op.clause))+1)
	for _, l := range op.clause {
		b = binary.AppendUvarint(b, uint64(l))
	}
	return b
}

// replay applies the op to an engine.
func (op logOp) replay(e Engine) {
	for i := 0; i < op.newVars; i++ {
		e.NewVar()
	}
	if op.hasClause {
		e.AddClause(op.clause...)
	}
}

// opLog records the variable/clause calls a MemoEngine receives and
// keeps a running SHA-256 over them, so every query has a formula hash
// without rehashing the log. It holds only the ops its engine has not
// yet replayed into the inner engine (drop): the digest and the
// variable count cover the whole formula.
type opLog struct {
	ops []logOp
	// lits holds every clause's literals back to back; each op's clause
	// is a capped window of it. Growing lits leaves earlier clauses in
	// the old array, which they keep alive and nothing writes again.
	lits        []Lit
	pendingVars int // NewVar calls since the last recorded op
	nVars       int
	ok          bool
	digest      hash.Hash
	buf         []byte // reused buffer for one op's encoding
}

func newOpLog() *opLog { return &opLog{ok: true, digest: sha256.New()} }

func (l *opLog) newVar() int {
	v := l.nVars
	l.nVars++
	l.pendingVars++
	return v
}

// addClause records a clause. Like the DIMACS-pipe engine, the log
// detects only the trivial top-level conflict (the empty clause);
// deeper conflicts surface when the inner engine propagates.
func (l *opLog) addClause(lits []Lit) bool {
	start := len(l.lits)
	l.lits = append(l.lits, lits...)
	cl := l.lits[start:len(l.lits):len(l.lits)]
	l.record(logOp{newVars: l.pendingVars, clause: cl, hasClause: true})
	if len(lits) == 0 {
		l.ok = false
	}
	return l.ok
}

func (l *opLog) record(op logOp) {
	l.pendingVars = 0
	l.ops = append(l.ops, op)
	l.buf = op.appendTo(l.buf[:0])
	l.digest.Write(l.buf)
}

// drop forgets every recorded op, once all of them have been replayed.
// The next op starts a fresh array, so no clause window an inner engine
// was handed is ever written again.
func (l *opLog) drop() {
	l.ops, l.lits = nil, nil
}

// hash records any trailing NewVar calls as a clause-less op, then
// returns the formula hash: the running digest's sum, which leaves the
// digest running. The op encoding is prefix-free and counts every
// NewVar, so equal hashes mean equal call sequences (up to SHA-256
// collisions).
func (l *opLog) hash() (h [sha256.Size]byte) {
	if l.pendingVars != 0 {
		l.record(logOp{newVars: l.pendingVars})
	}
	l.digest.Sum(h[:0])
	return h
}

// memoQuery records one past SolveAssuming call so a later cache miss
// can replay the inner engine into the exact incremental state it
// would have had without the cache. opsAt counts the ops logged before
// it since the last inner solve.
type memoQuery struct {
	opsAt       int
	assumptions []Lit
}

// MemoEngine wraps an inner engine with a Memo. Clauses and variables
// are recorded in an op log (so every query has a formula hash); the
// inner engine is only fed — the logged calls and the replayed query
// history — on the first cache miss. A fully memoized consumer never
// runs a solver. Like every Engine, a MemoEngine is not safe for
// concurrent use.
type MemoEngine struct {
	memo *Memo
	ctr  *MemoCounters // optional per-run accounting; may be nil

	inner Engine
	log   *opLog
	ctx   context.Context
	stats Stats

	live     bool        // the inner engine has solved at least once
	queries  []memoQuery // memo hits since the last inner solve, to replay on a miss
	cached   *memoEntry  // model source when the last solve hit
	lastTier MemoTier    // which tier answered the last solve
}

var _ Engine = (*MemoEngine)(nil)

// NewMemoEngine wraps inner with the given memo. ctr, when non-nil,
// accumulates this engine's hits and misses for per-run reporting on
// top of the memo's global counters.
func NewMemoEngine(memo *Memo, ctr *MemoCounters, inner Engine) *MemoEngine {
	return &MemoEngine{memo: memo, ctr: ctr, inner: inner, log: newOpLog()}
}

// LastTier returns which tier answered the most recent
// Solve/SolveAssuming: TierMemory, TierDisk, or TierMiss (solved by
// the inner engine).
func (m *MemoEngine) LastTier() MemoTier { return m.lastTier }

// NewVar introduces a fresh variable and returns its index.
func (m *MemoEngine) NewVar() int { return m.log.newVar() }

// NumVars returns the number of variables created so far.
func (m *MemoEngine) NumVars() int { return m.log.nVars }

// AddClause records a clause (see opLog.addClause for the top-level
// conflict caveat shared with the DIMACS-pipe engine).
func (m *MemoEngine) AddClause(lits ...Lit) bool { return m.log.addClause(lits) }

// SetContext attaches a cancellation/deadline context.
func (m *MemoEngine) SetContext(ctx context.Context) {
	m.ctx = ctx
	if m.live {
		m.inner.SetContext(ctx)
	}
}

// Stats returns the wrapper's call counter plus the inner engine's
// counters once it has solved.
func (m *MemoEngine) Stats() Stats {
	if m.live {
		return m.stats.Add(m.inner.Stats())
	}
	return m.stats
}

// Solve determines satisfiability of the recorded clause set.
func (m *MemoEngine) Solve() Status { return m.SolveAssuming(nil) }

// SolveAssuming answers from the memo when the (formula, assumptions)
// key is recorded in either tier; otherwise it solves on the inner
// engine — replaying history first for state parity — and records the
// verdict in both tiers.
func (m *MemoEngine) SolveAssuming(assumptions []Lit) Status {
	m.stats.SolveCalls++
	key := memoKey{formula: m.log.hash(), assume: assumeKey(assumptions)}
	rec := memoQuery{opsAt: len(m.log.ops), assumptions: append([]Lit(nil), assumptions...)}
	if e, tier := m.memo.lookup(key); tier != TierMiss {
		if m.ctr != nil {
			if tier == TierDisk {
				m.ctr.diskHits.Add(1)
			} else {
				m.ctr.hits.Add(1)
			}
		}
		m.queries = append(m.queries, rec)
		m.cached = e
		m.lastTier = tier
		return e.st
	}
	if m.ctr != nil {
		m.ctr.misses.Add(1)
	}
	st := m.solveInner(rec)
	m.cached = nil
	m.lastTier = TierMiss
	if st != Unknown {
		e := &memoEntry{st: st}
		if st == Sat {
			e.nVars = m.log.nVars
			e.bits = packModel(m.inner, e.nVars)
		}
		if m.memo.store(key, e) && m.ctr != nil {
			m.ctr.capped.Add(1)
		}
	}
	return st
}

// solveInner brings the inner engine up to date — the logged calls
// and any queries answered from the memo since the last inner solve,
// in their original interleaving — then runs the current query. Nothing
// reads the replayed ops and queries again, so it drops them: the
// engine does not hold its formula twice.
func (m *MemoEngine) solveInner(rec memoQuery) Status {
	if !m.live {
		if m.ctx != nil {
			m.inner.SetContext(m.ctx)
		}
		m.live = true
	}
	replayed := 0
	replayTo := func(opsAt int) {
		for _, op := range m.log.ops[replayed:opsAt] {
			op.replay(m.inner)
		}
		replayed = opsAt
	}
	for _, q := range m.queries {
		replayTo(q.opsAt)
		m.inner.SolveAssuming(q.assumptions)
	}
	replayTo(rec.opsAt)
	st := m.inner.SolveAssuming(rec.assumptions)
	m.queries = nil
	m.log.drop()
	return st
}

// Value returns variable v's value in the last satisfying assignment
// (the recorded model when the last solve was answered from the memo).
func (m *MemoEngine) Value(v int) bool {
	if m.cached != nil {
		return m.cached.value(v)
	}
	if !m.live {
		return false
	}
	return m.inner.Value(v)
}

// LitTrue reports whether literal l is true in the last model.
func (m *MemoEngine) LitTrue(l Lit) bool {
	v := m.Value(l.Var())
	if l.Sign() {
		return !v
	}
	return v
}
