package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/fall"
	"repro/internal/genbench"
	"repro/internal/keyconfirm"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/satattack"
)

// satIterCap bounds the SAT attack's distinguishing inputs per row on
// oracle-guided; decoysPerRow is the number of wrong keys beside the
// planted one in each key-confirmation shortlist.
const (
	satIterCap   = 100
	decoysPerRow = 3
)

// workloadNames lists the workloads in the order BENCHMARK.json names
// them.
var workloadNames = []string{"fall-oracleless", "oracle-guided", "campaign-rerun"}

// unit is the outcome of one unit of work in one pass.
type unit struct {
	id     string
	cs     *exp.Case
	dur    time.Duration
	keys   []attack.Key
	failed bool
	// mustSolve marks a unit whose verdict is known in advance: key
	// confirmation with the planted key in its shortlist.
	mustSolve bool
}

// pass is one run over a workload's fixed unit set.
type pass struct {
	wall  time.Duration
	units []unit
	// counts holds per-layer counts and stage times read from the
	// layers' own results.
	counts map[string]float64
	// report is the rendered campaign report (campaign-rerun only).
	report []byte
}

// digest identifies a pass's verdicts, so passes of one run can be
// compared for determinism.
func (p *pass) digest() string {
	var b strings.Builder
	for _, u := range p.units {
		fmt.Fprintf(&b, "%s failed=%v keys=", u.id, u.failed)
		for _, k := range u.keys {
			names := make([]string, 0, len(k))
			for n := range k {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&b, "%s=%v,", n, k[n])
			}
			b.WriteByte(';')
		}
		b.WriteByte('\n')
	}
	b.Write(p.report)
	return b.String()
}

// workload is one benchmark workload. setup builds its inputs (timed as
// setup_s), pass runs every unit once, and check verifies a pass outside
// the timed window.
type workload interface {
	setup(ctx context.Context, tr *tracer) error
	pass(ctx context.Context, tr *tracer) (*pass, error)
	check(ctx context.Context, p *pass) error
	// setups is how many times a run repeats set-up.
	setups() int
	// reset releases what the last set-up made.
	reset()
}

func newWorkload(name string, specs []genbench.Spec, seed int64, dir string) (workload, error) {
	switch name {
	case "fall-oracleless":
		return &fallWorkload{specs: specs, seed: seed}, nil
	case "oracle-guided":
		return &oracleWorkload{specs: specs}, nil
	case "campaign-rerun":
		return &campaignWorkload{specs: everyOther(specs), dir: dir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// suiteSeed generates the host circuits, so that like the paper's
// benchmark netlists they are the same in every run. It also draws all
// inputs of oracle-guided and campaign-rerun, where a seed would move the
// amount of work: the SAT attack converges early on some locks by luck,
// which moved oracle-guided's work by about 15% between lock seeds; key
// confirmation's time depends erratically on the decoys, which moved
// oracle-guided's tail, relative to its pass time, by about 12% between
// decoy seeds; and a campaign
// plan derives hosts and locks from one seed, which moved FALL's
// candidate count by about 14% between plan seeds.
const suiteSeed = 2019

// buildCases builds every spec at every given level with build, passing
// the row seed a campaign plan of suiteSeed derives for the spec.
func buildCases(specs []genbench.Spec, levels []exp.HLevel, tr *tracer, build func(genbench.Spec, exp.HLevel, int64) (*exp.Case, error)) ([]*exp.Case, error) {
	var cases []*exp.Case
	for i, spec := range specs {
		for _, level := range levels {
			id := tr.begin("lock")
			cs, err := build(spec, level, suiteSeed+int64(i)*1009)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			cases = append(cases, cs)
		}
	}
	return cases, nil
}

// lockCase is exp.BuildCase with separate host and lock seeds. A lock seed
// picks the target output, the protected inputs and the key.
func lockCase(spec genbench.Spec, level exp.HLevel, host, lockSeed int64) (*exp.Case, error) {
	orig, err := genbench.Generate(spec, host)
	if err != nil {
		return nil, err
	}
	h := level.Value(spec.Keys)
	if level != exp.HD0 && h < 1 {
		h = 1
	}
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: spec.Keys, H: h, Seed: lockSeed, Optimize: true})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", spec.Name, level.Token(), err)
	}
	return &exp.Case{Spec: spec, Level: level, H: h, Orig: orig, Lock: lr, Seed: lockSeed}, nil
}

// everyOther keeps every other spec, from the first: a campaign's cold
// fill is a full FALL pass, and set-up repeats it.
func everyOther(specs []genbench.Spec) []genbench.Spec {
	var out []genbench.Spec
	for i := 0; i < len(specs); i += 2 {
		out = append(out, specs[i])
	}
	return out
}

func caseID(cs *exp.Case) string { return cs.Spec.Name + "/" + cs.Level.Token() }

// checkUnits verifies every key every unit returned and marks the units
// whose shortlist holds a correct key. It returns the solved count.
func checkUnits(ctx context.Context, p *pass, seed int64) (int, error) {
	solved := 0
	for i := range p.units {
		u := &p.units[i]
		ok := false
		for _, key := range u.keys {
			good, err := verifyKey(ctx, u.cs, key, seed+int64(i))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", u.id, err)
			}
			ok = ok || good
		}
		if u.mustSolve && !ok {
			return 0, fmt.Errorf("%s: no correct key confirmed although the planted key was a candidate", u.id)
		}
		if ok {
			solved++
		}
	}
	return solved, nil
}

// fallWorkload is fall-oracleless: one Auto FALL attack per locked
// instance, every row at all four h levels.
type fallWorkload struct {
	specs []genbench.Spec
	seed  int64
	cases []*exp.Case
}

func (w *fallWorkload) setups() int { return 5 }
func (w *fallWorkload) reset()      { w.cases = nil }

func (w *fallWorkload) setup(ctx context.Context, tr *tracer) (err error) {
	rng := rand.New(rand.NewSource(w.seed))
	w.cases, err = buildCases(w.specs, exp.Levels, tr, func(spec genbench.Spec, level exp.HLevel, host int64) (*exp.Case, error) {
		return lockCase(spec, level, host, rng.Int63())
	})
	return err
}

func (w *fallWorkload) pass(ctx context.Context, tr *tracer) (*pass, error) {
	p := &pass{counts: map[string]float64{}}
	start := time.Now()
	for i, cs := range w.cases {
		tr.setUnit(i)
		t0 := time.Now()
		id := tr.begin("fall")
		res, err := fall.Attack(ctx, cs.Lock.Locked, fall.Options{H: cs.H, Workers: 1, Solver: tr.factory()})
		tr.end(id)
		u := unit{id: caseID(cs), cs: cs, dur: time.Since(t0), failed: err != nil}
		if res != nil {
			for _, k := range res.Keys {
				u.keys = append(u.keys, k.Key)
			}
			p.counts["fall.structural_ms"] += ms(res.ComparatorTime + res.MatchTime)
			p.counts["fall.analysis_ms"] += ms(res.AnalysisTime)
			p.counts["fall.candidates"] += float64(len(res.Candidates))
			p.counts["fall.cells"] += float64(2 * len(res.Candidates))
			p.counts["fall.keys"] += float64(len(res.Keys))
		}
		p.units = append(p.units, u)
	}
	p.wall = time.Since(start)
	return p, nil
}

func (w *fallWorkload) check(ctx context.Context, p *pass) error { return nil }

// oracleWorkload is oracle-guided: per row locked with TTLock, key
// confirmation of a shortlist holding the planted key and decoys, then
// the SAT attack capped at satIterCap distinguishing inputs.
type oracleWorkload struct {
	specs      []genbench.Spec
	cases      []*exp.Case
	shortlists [][]attack.Key
}

func (w *oracleWorkload) setups() int { return 5 }
func (w *oracleWorkload) reset()      { w.cases, w.shortlists = nil, nil }

func (w *oracleWorkload) setup(ctx context.Context, tr *tracer) (err error) {
	if w.cases, err = buildCases(w.specs, []exp.HLevel{exp.HD0}, tr, exp.BuildCase); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(suiteSeed))
	for _, cs := range w.cases {
		w.shortlists = append(w.shortlists, shortlist(cs.Lock.Key, cs.Lock.KeyNames, rng))
	}
	return nil
}

// shortlist returns the planted key and decoysPerRow decoys, each the
// planted key with one bit flipped, the bits distinct and drawn from rng,
// in a shuffled order.
func shortlist(planted attack.Key, names []string, rng *rand.Rand) []attack.Key {
	keys := []attack.Key{planted}
	for _, i := range rng.Perm(len(names))[:decoysPerRow] {
		decoy := make(attack.Key, len(planted))
		for n, v := range planted {
			decoy[n] = v
		}
		decoy[names[i]] = !decoy[names[i]]
		keys = append(keys, decoy)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func (w *oracleWorkload) pass(ctx context.Context, tr *tracer) (*pass, error) {
	p := &pass{counts: map[string]float64{}}
	start := time.Now()
	for i, cs := range w.cases {
		locked := cs.Lock.Locked
		tr.setUnit(2 * i)
		t0 := time.Now()
		id := tr.begin("keyconfirm")
		kr, err := keyconfirm.Confirm(ctx, locked, w.shortlists[i], tr.oracle(oracle.NewSim(cs.Orig)), keyconfirm.Options{Solver: tr.factory()})
		tr.end(id)
		u := unit{id: "keyconfirm/" + caseID(cs), cs: cs, dur: time.Since(t0), failed: err != nil, mustSolve: true}
		if err == nil {
			p.counts["keyconfirm.iterations"] += float64(kr.Iterations)
			p.counts["oracle.queries"] += float64(kr.OracleQueries)
			if kr.Confirmed {
				u.keys = []attack.Key{kr.Key}
			}
		}
		p.units = append(p.units, u)

		tr.setUnit(2*i + 1)
		t0 = time.Now()
		id = tr.begin("satattack")
		sr, err := satattack.Run(ctx, locked, tr.oracle(oracle.NewSim(cs.Orig)), satattack.Options{MaxIterations: satIterCap, Solver: tr.factory()})
		tr.end(id)
		u = unit{id: "satattack/" + caseID(cs), cs: cs, dur: time.Since(t0), failed: err != nil}
		if err == nil {
			p.counts["satattack.iterations"] += float64(sr.Iterations)
			p.counts["oracle.queries"] += float64(sr.OracleQueries)
			if sr.Solved {
				u.keys = []attack.Key{sr.Key}
			}
		}
		p.units = append(p.units, u)
	}
	p.wall = time.Since(start)
	return p, nil
}

func (w *oracleWorkload) check(ctx context.Context, p *pass) error { return nil }

// campaignWorkload is campaign-rerun: every other row of the suite at
// all four levels as the summary campaign plan of suiteSeed, whose disk
// verdict memo a cold run fills during set-up. Each pass reruns the plan
// on the warm memo into a fresh artifact directory, then merges and
// renders the report.
type campaignWorkload struct {
	specs []genbench.Spec
	dir   string

	cases      map[string]*exp.Case
	plan       *campaign.Plan
	memoDir    string
	coldDir    string
	coldReport []byte
}

func (w *campaignWorkload) setups() int { return 3 }

func (w *campaignWorkload) reset() {
	for _, d := range []string{w.memoDir, w.coldDir} {
		if d != "" {
			os.RemoveAll(d)
		}
	}
	w.cases, w.plan, w.memoDir, w.coldDir, w.coldReport = nil, nil, "", "", nil
}

func (w *campaignWorkload) setup(ctx context.Context, tr *tracer) error {
	var err error
	if w.plan, err = campaign.NewPlan(campaign.Config{Specs: w.specs, Seed: suiteSeed, Suites: []string{"summary"}}); err != nil {
		return err
	}
	// The instances the plan's cases attack, for the correctness gate.
	cases, err := buildCases(w.specs, exp.Levels, tr, exp.BuildCase)
	if err != nil {
		return err
	}
	w.cases = make(map[string]*exp.Case, len(cases))
	for _, cs := range cases {
		w.cases["summary/"+caseID(cs)] = cs
	}
	if w.memoDir, err = os.MkdirTemp(w.dir, "memo-"); err != nil {
		return err
	}
	if w.coldDir, err = os.MkdirTemp(w.dir, "cold-"); err != nil {
		return err
	}
	id := tr.begin("campaign")
	_, err = campaign.Run(ctx, w.plan, w.coldDir, campaign.RunOptions{Workers: 1, MemoDir: w.memoDir})
	tr.end(id)
	if err != nil {
		return fmt.Errorf("cold campaign run: %w", err)
	}
	m, err := campaign.Merge(w.plan, []string{w.coldDir})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := m.Render(&buf); err != nil {
		return err
	}
	w.coldReport = buf.Bytes()
	return nil
}

// unitClock is a campaign progress log that timestamps each completed
// case: the shard runs on one worker, so the time between two progress
// lines is the later case's time to verdict.
type unitClock struct {
	mu   sync.Mutex
	last time.Time
	durs map[string]time.Duration
}

func (c *unitClock) Write(b []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "campaign:" && strings.HasPrefix(f[1], "summary/") {
			c.durs[f[1]] = now.Sub(c.last)
			c.last = now
		}
	}
	return len(b), nil
}

func (w *campaignWorkload) pass(ctx context.Context, tr *tracer) (*pass, error) {
	artDir, err := os.MkdirTemp(w.dir, "warm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(artDir)
	p := &pass{counts: map[string]float64{}}
	start := time.Now()
	clock := &unitClock{last: start, durs: map[string]time.Duration{}}
	id := tr.begin("campaign")
	_, err = campaign.Run(ctx, w.plan, artDir, campaign.RunOptions{Workers: 1, MemoDir: w.memoDir, Log: clock})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("warm campaign run: %w", err)
	}
	id = tr.begin("campaign.merge")
	m, err := campaign.Merge(w.plan, []string{artDir})
	var buf bytes.Buffer
	if err == nil {
		err = m.Render(&buf)
	}
	tr.end(id)
	p.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("warm campaign merge: %w", err)
	}
	p.report = buf.Bytes()

	for _, pc := range w.plan.Cases {
		a := m.Artifacts[pc.ID]
		u := unit{id: pc.ID, cs: w.cases[pc.ID], dur: clock.durs[pc.ID], failed: a == nil || a.Failed()}
		if a != nil && a.Outcome != nil {
			u.keys = a.Outcome.Keys
		}
		p.units = append(p.units, u)
	}
	if st := m.MemoStats(); st != nil {
		p.counts["sat.memo_hits_memory"] = float64(st.Hits)
		p.counts["sat.memo_hits_disk"] = float64(st.DiskHits)
		p.counts["sat.memo_misses"] = float64(st.Misses)
	}
	size, err := dirBytes(artDir)
	if err != nil {
		return nil, err
	}
	p.counts["campaign.artifact_mb"] = float64(size) / (1 << 20)
	return p, nil
}

// check requires the warm report to equal the cold one byte for byte and
// the warm pass to have read the disk memo.
func (w *campaignWorkload) check(ctx context.Context, p *pass) error {
	if !bytes.Equal(p.report, w.coldReport) {
		return fmt.Errorf("warm report differs from the cold report:\n--- cold\n%s--- warm\n%s", w.coldReport, p.report)
	}
	if p.counts["sat.memo_hits_disk"] <= 0 {
		return fmt.Errorf("warm pass made no disk memo hits")
	}
	return nil
}

// diskMemo reports the record count and size of the filled verdict store.
func (w *campaignWorkload) diskMemo() (sat.DiskMemoStats, error) {
	d, err := sat.OpenDiskMemo(w.memoDir, 0)
	if err != nil {
		return sat.DiskMemoStats{}, err
	}
	return d.Stats(), nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
